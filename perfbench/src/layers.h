#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/wait_stats.h"
#include "counting_store.h"
#include "engine/engine.h"
#include "obs/query_store.h"
#include "storage/memory_object_store.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// A database on a bench-owned in-memory object store, opened through
/// PolarisEngine::OpenOn (the journaled-primary path), with a CountingStore
/// between the engine and the store. Members are declared so the engine
/// is destroyed before the stores and clock it points into.
struct MemoryDb {
  polaris::common::SimClock clock{1'000'000};
  polaris::storage::MemoryObjectStore memory{&clock};
  CountingStore store{&memory};
  std::unique_ptr<polaris::engine::PolarisEngine> engine;

  polaris::common::Status Open();
};

/// Everything the benchmark reads from the engine's public counters at one
/// boundary of a measured window. Only counts and steady-clock wait totals
/// are taken; nothing here reads the engine's (virtual) clock.
struct Counters {
  std::map<std::string, uint64_t> metrics;  // MetricsSnapshot counters
  polaris::common::WaitStats::Snapshot waits;
  polaris::exec::DataCache::Stats cache;
  polaris::lst::SnapshotBuilder::CacheStats snapshots;
  StoreCounts store;  // zero when the store is not a CountingStore
  /// Query Store rows for SELECT fingerprints, summed.
  polaris::obs::QueryStoreEntryRow selects;
  double process_cpu_ms = 0;
};

/// `store` may be null (durable engines own their store).
Counters TakeCounters(polaris::engine::PolarisEngine* engine,
                      const CountingStore* store);

/// Window delta helpers.
uint64_t CounterDelta(const Counters& a, const Counters& b,
                      const std::string& name);
double WaitUsDelta(const Counters& a, const Counters& b,
                   polaris::common::WaitClass cls);

/// x / y, or 0 when there is nothing to divide by.
double Ratio(double x, double y);

/// Engine options shared by every workload: no timer-driven threads in
/// the measured process (sampler off; heartbeat and replica polling are
/// off by default or set off by the workload), everything else default.
polaris::engine::EngineOptions QuietEngineOptions();

/// Adds any `catalog` metric missing from `result.per_layer` as 0 and
/// sets every metric's unit from the catalog.
void FillPerLayer(RunResult& result, const LayerCatalog& catalog);

/// Per-layer figures of one round each, by metric name; a run reports the
/// median over its traced rounds.
using LayerRounds = std::map<std::string, std::vector<double>>;

/// Zone-map, DV and fan-out counters of a set of queries, taken through
/// PolarisEngine::Query (the SQL surface does not expose them). Untimed.
struct ScanProbe {
  uint64_t queries = 0;
  uint64_t groups_read = 0;
  uint64_t groups_skipped = 0;
  uint64_t dv_filtered = 0;
  uint64_t tasks = 0;
};
ScanProbe ProbeScans(polaris::engine::PolarisEngine* engine,
                     const std::string& table,
                     const std::vector<polaris::engine::QuerySpec>& specs,
                     RunResult& out);

/// Times sql::Parse on each text (microseconds, appended to `us`), inside
/// a span per call.
void TimeParses(const std::vector<std::string>& texts, SpanThread* tracer,
                std::vector<double>* us, RunResult& out);

/// The read-path layer figures of one traced window: rows, DV and zone-map
/// counts and store bytes per query, cache and snapshot-cache hit rates,
/// single-flight waits and DCP fan-out.
void AddReadPathLayers(const Counters& before, const Counters& after,
                       const ScanProbe& probe, LayerRounds& rounds);

/// Adds `b - a` class by class into `sum`.
void AddWaitDelta(const polaris::common::WaitStats::Snapshot& a,
                  const polaris::common::WaitStats::Snapshot& b,
                  polaris::common::WaitStats::Snapshot* sum);

/// Fixed-width table of wait-class totals per operation (classes that
/// never waited are left out).
std::string FormatWaitTable(const polaris::common::WaitStats::Snapshot& waits,
                            uint64_t ops);

/// Fixed-width per-layer table: spans, self time and self time per
/// operation, from the traced rounds' spans.
std::string FormatLayerTable(const std::map<std::string, LayerTime>& layers,
                             uint64_t ops);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
