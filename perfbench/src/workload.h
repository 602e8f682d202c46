#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Timed work to accumulate before the run stops starting rounds.
  double seconds = 10;
  /// Traced run: alternate untraced and traced rounds and report the
  /// per-layer metrics (plus the tracing overhead) instead of end-to-end.
  bool trace = false;
  /// Scratch directory for durable databases; created and removed by the
  /// caller.
  std::string work_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
  /// Samples behind the value (operations for a rate, samples for a
  /// percentile, rounds for a per-round figure).
  uint64_t samples = 0;
  /// False when a percentile lacks kMinBeyond samples beyond it.
  bool supported = true;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failures, for the log
  /// The gated end-to-end metrics (BENCHMARK.json), reported with
  /// --trace 0.
  std::map<std::string, Metric> end_to_end;
  /// The workload's own end-to-end figures by name, printed for people.
  std::vector<std::pair<std::string, Metric>> named;
  /// Per-layer metrics, reported with --trace 1.
  std::map<std::string, Metric> per_layer;
  /// Human-readable per-layer table (traced runs).
  std::string layer_table;
  /// Chrome trace JSON of the traced rounds.
  std::string chrome_trace;

  void Fail(const std::string& what);
  void Check(const polaris::common::Status& st, const std::string& what);
};

RunResult RunTrickleDml(const RunOptions& options);
RunResult RunAnalyticScan(const RunOptions& options);
RunResult RunRestart(const RunOptions& options);
RunResult RunFailover(const RunOptions& options);

/// Per-layer metric names with their units. Each workload reports the
/// full catalog of its family (0 where the workload has no such work):
/// trickle_dml and analytic_scan the read-write one, restart and failover
/// the recovery one.
using LayerCatalog = std::vector<std::pair<std::string, std::string>>;
const LayerCatalog& ReadWriteLayerCatalog();
const LayerCatalog& RecoveryLayerCatalog();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
