#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload restart --seed 1 --seconds 10 --trace 0

--workload is restart, failover, trickle_dml, analytic_scan, or all (each
workload then runs in its own process, one after another). The last line of
standard output is the run's JSON result. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; scratch
databases live there too and are removed when the run ends. Traced runs
(--trace 1) leave a Chrome trace in <build dir>/perfbench-traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["restart", "failover", "trickle_dml", "analytic_scan"]
# One workload run is sized to finish well inside this.
RUN_TIMEOUT_S = 170


def build_root() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: engine sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def run_one(binary: Path, workload: str, args, root: Path) -> int:
    work_dir = root / "perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work_dir)]
    if args.trace == "1":
        traces = root / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{workload}-seed{args.seed}.trace.json")]
    try:
        sys.stdout.flush()
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = build_root()
    binary = build(root / "perfbench-build")
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = run_one(binary, workload, args, root) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
