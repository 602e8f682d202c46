// perfbench: one workload per process. Prints the workload's metrics for
// people, then, as its last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). See ../README.md for the workloads and metric definitions.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_json.h"
#include "common/logging.h"
#include "workload.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload restart|failover|trickle_dml|"
               "analytic_scan --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE]\n");
  return 2;
}

void PrintMetric(const char* kind, const std::string& name, const Metric& m) {
  std::printf("%-9s %-42s %16.6f %-6s n=%llu%s\n", kind, name.c_str(),
              m.value, m.unit.c_str(),
              static_cast<unsigned long long>(m.samples),
              m.supported ? "" : "  (too few samples beyond this percentile)");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      options.work_dir.empty()) {
    return Usage();
  }
  polaris::common::SetLogLevel(polaris::common::LogLevel::kWarn);

  RunResult result;
  if (workload == "trickle_dml") {
    result = perfbench::RunTrickleDml(options);
  } else if (workload == "analytic_scan") {
    result = perfbench::RunAnalyticScan(options);
  } else if (workload == "restart") {
    result = perfbench::RunRestart(options);
  } else if (workload == "failover") {
    result = perfbench::RunFailover(options);
  } else {
    return Usage();
  }

  // A run that did nothing, or has an end-to-end metric it could not
  // measure (every one of them is positive by definition), is not a
  // correct run.
  const auto& reported = options.trace ? result.per_layer : result.end_to_end;
  if (result.attempted == 0 || reported.empty()) result.correct = false;
  if (!options.trace) {
    for (const auto& [name, m] : result.end_to_end) {
      if (!(m.value > 0 && std::isfinite(m.value))) {
        result.correct = false;
        result.errors.push_back(name + " was not measured");
      }
    }
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }
  if (!options.trace) {
    for (const auto& [name, m] : result.named) PrintMetric("workload", name, m);
  } else {
    std::printf("%s", result.layer_table.c_str());
    if (!trace_out.empty()) {
      std::ofstream(trace_out) << result.chrome_trace;
      std::printf("chrome trace: %s\n", trace_out.c_str());
    }
  }
  for (const auto& [name, m] : reported) {
    PrintMetric("metric", name, m);
  }

  polaris::bench::JsonObject metrics;
  for (const auto& [name, m] : reported) {
    metrics.AddRaw(name, polaris::bench::JsonObject()
                             .Add("value", std::isfinite(m.value) ? m.value : 0)
                             .Add("unit", m.unit)
                             .Render());
  }
  polaris::bench::JsonObject line;
  line.Add("correct", result.correct)
      .Add("attempted", result.attempted)
      .Add("failed", result.failed)
      .AddRaw("metrics", metrics.Render());
  std::printf("%s\n", line.Render().c_str());
  return 0;
}
