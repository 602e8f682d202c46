#include "layers.h"

#include <cstdio>

#include "proc_stats.h"
#include "sql/parser.h"

namespace perfbench {

using polaris::common::WaitClass;

void RunResult::Fail(const std::string& what) {
  correct = false;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void RunResult::Check(const polaris::common::Status& st,
                      const std::string& what) {
  if (!st.ok()) Fail(what + ": " + st.ToString());
}

polaris::common::Status MemoryDb::Open() {
  POLARIS_ASSIGN_OR_RETURN(engine, polaris::engine::PolarisEngine::OpenOn(
                                       QuietEngineOptions(), &store, &clock));
  return polaris::common::Status::OK();
}

Counters TakeCounters(polaris::engine::PolarisEngine* engine,
                      const CountingStore* store) {
  Counters c;
  c.metrics = engine->MetricsSnapshot().counters;
  c.waits = engine->wait_stats()->TakeSnapshot();
  polaris::engine::EngineStats stats = engine->Stats();
  c.cache = stats.cache;
  c.snapshots = stats.snapshot_cache;
  if (store != nullptr) c.store = store->Snapshot();
  for (const auto& row : engine->query_store()->Snapshot()) {
    if (row.kind != "SELECT") continue;
    c.selects.count += row.count;
    c.selects.store_read_ops += row.store_read_ops;
    c.selects.store_read_bytes += row.store_read_bytes;
    c.selects.rows_scanned += row.rows_scanned;
  }
  c.process_cpu_ms = ProcessCpuMs();
  return c;
}

uint64_t CounterDelta(const Counters& a, const Counters& b,
                      const std::string& name) {
  auto get = [&](const Counters& c) -> uint64_t {
    auto it = c.metrics.find(name);
    return it == c.metrics.end() ? 0 : it->second;
  };
  return get(b) - get(a);
}

double WaitUsDelta(const Counters& a, const Counters& b, WaitClass cls) {
  const int i = static_cast<int>(cls);
  return static_cast<double>(b.waits.classes[i].total_us -
                             a.waits.classes[i].total_us);
}

double Ratio(double x, double y) { return y == 0 ? 0 : x / y; }

polaris::engine::EngineOptions QuietEngineOptions() {
  polaris::engine::EngineOptions options;
  options.sampler_period_micros = 0;
  options.failover.heartbeat_period_micros = 0;
  options.replica_options.poll_interval_micros = 0;
  return options;
}

const LayerCatalog& ReadWriteLayerCatalog() {
  static const LayerCatalog catalog = {
      {"sql.parse_us_p50", "us"},
      {"txn.begin_us_p50", "us"},
      {"txn.commit_ms_p50", "ms"},
      {"txn.commit_ms_p95", "ms"},
      {"txn.commit_ms_p99", "ms"},
      {"txn.conflicts", "count"},
      {"catalog.commits_per_batch", "ratio"},
      {"catalog.gate_wait_us_per_commit", "us"},
      {"catalog.barrier_wait_us_per_commit", "us"},
      {"catalog.journal_bytes_per_commit", "B"},
      {"catalog.checkpoint_bytes", "B"},
      {"lst.manifest_bytes_per_commit", "B"},
      {"lst.checkpoint_bytes", "B"},
      {"lst.snapshot_cache_hit_rate", "ratio"},
      {"exec.insert_ms_p50", "ms"},
      {"exec.update_ms_p50", "ms"},
      {"exec.delete_ms_p50", "ms"},
      {"exec.query_ms_p50", "ms"},
      {"exec.rows_scanned_per_query", "rows"},
      {"exec.row_groups_skipped_frac", "ratio"},
      {"exec.rows_dv_filtered_per_query", "rows"},
      {"exec.cache_hit_rate", "ratio"},
      {"exec.cache_evictions", "count"},
      {"exec.singleflight_wait_us", "us"},
      {"format.data_bytes_per_row_written", "B"},
      {"format.bytes_read_per_query", "B"},
      {"dcp.tasks_per_query", "count"},
      {"dcp.queue_wait_us_per_stmt", "us"},
      {"storage.puts_per_commit", "count"},
      {"storage.gets_per_query", "count"},
      {"storage.bytes_written.data", "B"},
      {"storage.bytes_written.dv", "B"},
      {"storage.bytes_written.manifest", "B"},
      {"storage.bytes_written.lst_checkpoint", "B"},
      {"storage.bytes_written.journal", "B"},
      {"storage.bytes_written.catalog_checkpoint", "B"},
      {"storage.bytes_written.delta_log", "B"},
      {"storage.write_amp", "ratio"},
      {"storage.io_wait_us_per_commit", "us"},
      {"sto.maintenance_ms_p50", "ms"},
      {"sto.compactions", "count"},
      {"sto.rows_rewritten", "rows"},
      {"sto.checkpoints", "count"},
      {"engine.cpu_ms_per_txn", "ms"},
      {"engine.cpu_ms_per_query", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return catalog;
}

const LayerCatalog& RecoveryLayerCatalog() {
  static const LayerCatalog catalog = {
      {"sql.parse_us_p50", "us"},
      {"txn.write_ms_p50", "ms"},
      {"engine.records_replayed", "count"},
      {"engine.open_cpu_ms", "ms"},
      {"storage.blobs_at_open", "count"},
      {"storage.open_read_mb", "MiB"},
      {"storage.io_wait_us_per_op", "us"},
      {"dcp.queue_wait_us_per_op", "us"},
      {"replica.bootstrap_records", "count"},
      {"replica.bootstrap_segments", "count"},
      {"replica.promote_ms_p50", "ms"},
      {"replica.promote_tail_records", "count"},
      {"obs.host_probe_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return catalog;
}

void FillPerLayer(RunResult& result, const LayerCatalog& catalog) {
  for (const auto& [name, unit] : catalog) {
    auto it = result.per_layer.find(name);
    if (it == result.per_layer.end()) {
      result.per_layer[name] = Metric{0, unit, 0, true};
    } else {
      it->second.unit = unit;
    }
  }
}

ScanProbe ProbeScans(polaris::engine::PolarisEngine* engine,
                     const std::string& table,
                     const std::vector<polaris::engine::QuerySpec>& specs,
                     RunResult& out) {
  ScanProbe probe;
  for (const auto& spec : specs) {
    polaris::engine::QueryStats stats;
    out.Check(engine->RunInTransaction([&](polaris::txn::Transaction* txn) {
      return engine->Query(txn, table, spec, &stats).status();
    }), "scan probe");
    ++probe.queries;
    probe.groups_read += stats.scan.row_groups_read;
    probe.groups_skipped += stats.scan.row_groups_skipped;
    probe.dv_filtered += stats.scan.rows_dv_filtered;
    probe.tasks += stats.job.tasks_run;
  }
  return probe;
}

void TimeParses(const std::vector<std::string>& texts, SpanThread* tracer,
                std::vector<double>* us, RunResult& out) {
  for (const std::string& text : texts) {
    ScopedSpan span(tracer, "sql::Parse", "sql", 0);
    const auto t0 = SteadyClock::now();
    auto parsed = polaris::sql::Parse(text);
    us->push_back(MsBetween(t0, SteadyClock::now()) * 1e3);
    if (!parsed.ok()) out.Fail("parse: " + parsed.status().ToString());
  }
}

void AddReadPathLayers(const Counters& before, const Counters& after,
                       const ScanProbe& probe, LayerRounds& rounds) {
  auto put = [&](const char* name, double v) { rounds[name].push_back(v); };
  auto diff = [](uint64_t b, uint64_t a) { return static_cast<double>(b - a); };
  const double queries = diff(after.selects.count, before.selects.count);
  put("exec.rows_scanned_per_query",
      Ratio(diff(after.selects.rows_scanned, before.selects.rows_scanned),
            queries));
  put("format.bytes_read_per_query",
      Ratio(diff(after.selects.store_read_bytes,
                 before.selects.store_read_bytes),
            queries));
  put("storage.gets_per_query",
      Ratio(diff(after.selects.store_read_ops, before.selects.store_read_ops),
            queries));
  const double probed = static_cast<double>(probe.queries);
  put("exec.row_groups_skipped_frac",
      Ratio(static_cast<double>(probe.groups_skipped),
            static_cast<double>(probe.groups_read + probe.groups_skipped)));
  put("exec.rows_dv_filtered_per_query",
      Ratio(static_cast<double>(probe.dv_filtered), probed));
  put("dcp.tasks_per_query", Ratio(static_cast<double>(probe.tasks), probed));
  const double hits = diff(after.cache.hits, before.cache.hits);
  const double misses = diff(after.cache.misses, before.cache.misses);
  put("exec.cache_hit_rate", Ratio(hits, hits + misses));
  put("exec.cache_evictions", diff(after.cache.evictions, before.cache.evictions));
  put("exec.singleflight_wait_us",
      WaitUsDelta(before, after, WaitClass::kCacheSingleflight));
  const double snap_hits =
      diff(after.snapshots.snapshot_hits, before.snapshots.snapshot_hits);
  const double snap_misses =
      diff(after.snapshots.snapshot_misses, before.snapshots.snapshot_misses);
  put("lst.snapshot_cache_hit_rate",
      Ratio(snap_hits, snap_hits + snap_misses));
}

void AddWaitDelta(const polaris::common::WaitStats::Snapshot& a,
                  const polaris::common::WaitStats::Snapshot& b,
                  polaris::common::WaitStats::Snapshot* sum) {
  for (int i = 0; i < polaris::common::kWaitClassCount; ++i) {
    sum->classes[i].count += b.classes[i].count - a.classes[i].count;
    sum->classes[i].total_us += b.classes[i].total_us - a.classes[i].total_us;
  }
}

std::string FormatWaitTable(const polaris::common::WaitStats::Snapshot& waits,
                            uint64_t ops) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-24s %14s %14s\n", "wait_class",
                "waits_per_op", "wait_us_per_op");
  out += line;
  const double n = static_cast<double>(ops);
  for (int i = 0; i < polaris::common::kWaitClassCount; ++i) {
    const auto& c = waits.classes[i];
    if (c.count == 0) continue;
    const std::string name(
        polaris::common::WaitClassName(static_cast<WaitClass>(i)));
    std::snprintf(line, sizeof(line), "%-24s %14.3f %14.2f\n", name.c_str(),
                  Ratio(static_cast<double>(c.count), n),
                  Ratio(static_cast<double>(c.total_us), n));
    out += line;
  }
  return out;
}

std::string FormatLayerTable(const std::map<std::string, LayerTime>& layers,
                             uint64_t ops) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %10s %12s %14s\n", "layer",
                "spans", "self_ms", "self_us_per_op");
  out += line;
  for (const auto& [layer, t] : layers) {
    std::snprintf(line, sizeof(line), "%-10s %10llu %12.3f %14.2f\n",
                  layer.c_str(), static_cast<unsigned long long>(t.spans),
                  t.self_ms, Ratio(t.self_ms * 1e3, static_cast<double>(ops)));
    out += line;
  }
  return out;
}

}  // namespace perfbench
