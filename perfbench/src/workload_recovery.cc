// restart and failover: a durable database (LocalFileObjectStore under the
// run's work directory; every blob commit is written to a temp file,
// fsynced, renamed, and its directory fsynced — the engine's own policy)
// is built from a seeded single-session trickle history with STO sweeps,
// then put through repeated cycles. Each cycle starts from an identical
// copy of the database made outside the timed window.
//   restart:  open as primary (PolarisEngine::Open), commit one write.
//   failover: attach a replica with background polling off, PROMOTE it,
//             commit one write on the new primary.
// storage (the open-time directory scan), catalog journal replay, replica
// bootstrap and promotion do all the work here.

#include <filesystem>
#include <system_error>
#include <vector>

#include "engine/engine.h"
#include "host_probe.h"
#include "layers.h"
#include "proc_stats.h"
#include "rounds.h"
#include "sql/session.h"
#include "stats.h"
#include "trace.h"
#include "trickle_db.h"
#include "trickle_oracle.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using polaris::common::Status;
using polaris::common::WaitClass;
using polaris::engine::EngineOptions;
using polaris::engine::PolarisEngine;
using polaris::sql::SqlResult;
using polaris::sql::SqlSession;

// The last 10 commits follow the last STO sweep: a journal tail.
constexpr int kHistoryOps = 410;
constexpr int kCyclesPerRound = 16;
// The write each cycle commits once the database is back: one row of
// amount 1, with an id no history row has.
constexpr const char* kFirstWrite =
    "INSERT INTO orders VALUES (1099511627776, 0, 1)";

TrickleConfig HistoryConfig() {
  TrickleConfig config;
  config.sessions = 1;
  config.ops_per_session = kHistoryOps;
  config.base_rows = 5000;
  config.select_pct = 0;
  config.update_pct = 15;
  config.delete_pct = 10;
  return config;
}

EngineOptions DurableOptions(const std::string& dir, bool replica) {
  EngineOptions options = QuietEngineOptions();
  options.data_dir = dir;
  options.replica = replica;
  return options;
}

/// Builds the pristine database of one round from the seeded history.
Status BuildHistory(const std::string& dir, const TrickleConfig& config,
                    const TricklePlan& plan, uint64_t seed) {
  POLARIS_ASSIGN_OR_RETURN(auto engine,
                           PolarisEngine::Open(DurableOptions(dir, false)));
  POLARIS_ASSIGN_OR_RETURN(TrickleTables tables,
                           LoadTrickleTables(engine.get(), config, seed));
  SqlSession sql(engine.get());
  uint64_t commits = 0;
  for (const TrickleOp& op : plan.sessions[0]) {
    POLARIS_RETURN_IF_ERROR(sql.Execute("BEGIN").status());
    POLARIS_ASSIGN_OR_RETURN(SqlResult dml, sql.Execute(op.sql));
    POLARIS_RETURN_IF_ERROR(sql.Execute("COMMIT").status());
    if (dml.affected_rows != op.expect_affected) {
      return Status::Corruption(op.sql + ": affected rows differ from oracle");
    }
    if (++commits % kMaintenanceEvery != 0) continue;
    auto* sto = engine->sto();
    for (int64_t table : {tables.orders, tables.accts[0]}) {
      POLARIS_RETURN_IF_ERROR(sto->CompactTable(table).status());
      POLARIS_RETURN_IF_ERROR(sto->MaybeCheckpoint(table).status());
    }
    POLARIS_RETURN_IF_ERROR(sto->MaintainCatalogJournal());
  }
  return Status::OK();
}

enum class Kind { kRestart, kFailover };

struct Cycle {
  /// Open as primary (restart) or as replica, bootstrap included
  /// (failover).
  double open_ms = 0;
  double promote_ms = 0;  // failover only
  /// The host probe: the mean of one run just before the timed calls and
  /// one just after them.
  double probe_ms = 0;
  double write_ms = 0;
  double open_cpu_ms = 0;
  uint64_t open_read_bytes = 0;
  uint64_t records_replayed = 0;  // restart only
  uint64_t bootstrap_records = 0, bootstrap_segments = 0;
  uint64_t promote_tail_records = 0;
  polaris::common::WaitStats::Snapshot waits;

  /// The client-visible write-unavailability window: from the start of
  /// the call that brings the writer back (Open on restart, Promote on
  /// failover) until the first write is acknowledged.
  double unavailable_ms(Kind kind) const {
    return (kind == Kind::kRestart ? open_ms : promote_ms) + write_ms;
  }
  /// Everything the cycle timed.
  double timed_ms() const { return open_ms + promote_ms + write_ms; }
};

bool IsScratchArea(const fs::path& rel) {
  const std::string top = rel.begin()->string();
  return top == "staged" || top == "tmp";
}

/// Makes `to` an identical copy of `from`, changing as little as possible.
/// Committed blob files are hard links to the pristine copy's: the store
/// only ever replaces a blob file by rename, never writes it in place, so
/// the pristine copy cannot change and a file still linked to it is still
/// identical. Whatever a cycle added or replaced is removed and linked
/// again; the scratch areas (staged blocks are overwritten in place) are
/// copied. Touching only what a cycle changed keeps thousands of file
/// creations and deletions per cycle from ageing the file system under
/// the measurement.
void SyncTree(const fs::path& from, const fs::path& to, std::error_code& ec) {
  std::vector<fs::path> stale;
  if (fs::exists(to)) {
    for (auto it = fs::recursive_directory_iterator(to, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      const fs::path rel = it->path().lexically_relative(to);
      const fs::path src = from / rel;
      std::error_code same;
      if (it->is_directory()) {
        if (!fs::is_directory(src, same)) {
          stale.push_back(it->path());
          it.disable_recursion_pending();
        }
      } else if (IsScratchArea(rel) || !fs::equivalent(src, it->path(), same)) {
        stale.push_back(it->path());
      }
    }
  }
  for (const fs::path& path : stale) fs::remove_all(path, ec);
  fs::create_directories(to, ec);
  for (auto it = fs::recursive_directory_iterator(from, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    const fs::path rel = it->path().lexically_relative(from);
    const fs::path dest = to / rel;
    if (it->is_directory()) {
      fs::create_directories(dest, ec);
    } else if (!fs::exists(dest)) {
      if (IsScratchArea(rel)) {
        fs::copy_file(it->path(), dest, ec);
      } else {
        fs::create_hard_link(it->path(), dest, ec);
      }
    }
  }
}

Status RunCycle(Kind kind, const std::string& pristine,
                const std::string& work, const TricklePlan& plan,
                HostProbe* probe, SpanThread* tracer, uint64_t op_id,
                Cycle* c) {
  std::error_code ec;
  SyncTree(pristine, work, ec);
  if (ec) return Status::IOError("copy " + pristine + ": " + ec.message());
  const double probe_before_ms = probe->RunMs();
  ScopedSpan op(tracer, "op.cycle", "bench", op_id);
  const bool replica = kind == Kind::kFailover;

  const uint64_t rchar0 = ReadChars();
  const double cpu0 = ThreadCpuMs();
  const auto t0 = SteadyClock::now();
  auto opened = [&] {
    ScopedSpan span(tracer,
                    replica ? "PolarisEngine::Open(replica)"
                            : "PolarisEngine::Open(primary)",
                    replica ? "replica" : "engine", op_id);
    return PolarisEngine::Open(DurableOptions(work, replica));
  }();
  c->open_ms = MsBetween(t0, SteadyClock::now());
  c->open_cpu_ms = ThreadCpuMs() - cpu0;
  c->open_read_bytes = ReadChars() - rchar0;
  if (!opened.ok()) return opened.status();
  PolarisEngine* engine = opened->get();
  // Waits are summed over the timed calls only, not the answer checks.
  polaris::common::WaitStats::Snapshot before =
      engine->wait_stats()->TakeSnapshot();
  AddWaitDelta({}, before, &c->waits);

  if (replica) {
    const auto status = engine->replica()->GetStatus();
    c->bootstrap_records = status.bootstrap_records;
    c->bootstrap_segments = status.bootstrap_segments;
    // The replica alone must already see every acknowledged commit.
    POLARIS_RETURN_IF_ERROR(VerifyTrickleState(engine, plan, 0));
    before = engine->wait_stats()->TakeSnapshot();
    const auto t1 = SteadyClock::now();
    auto promoted = [&] {
      ScopedSpan span(tracer, "PolarisEngine::Promote", "replica", op_id);
      return engine->Promote();
    }();
    c->promote_ms = MsBetween(t1, SteadyClock::now());
    if (!promoted.ok()) return promoted.status();
    c->promote_tail_records = promoted->tail_records;
  } else {
    c->records_replayed = engine->recovery_info().records_replayed;
  }

  SqlSession sql(engine);
  const auto t2 = SteadyClock::now();
  auto wrote = [&] {
    ScopedSpan span(tracer, "SqlSession::Execute(INSERT)", "txn", op_id);
    return sql.Execute(kFirstWrite);
  }();
  c->write_ms = MsBetween(t2, SteadyClock::now());
  c->probe_ms = (probe_before_ms + probe->RunMs()) / 2;
  if (!wrote.ok()) return wrote.status();
  AddWaitDelta(before, engine->wait_stats()->TakeSnapshot(), &c->waits);
  // Every acknowledged commit of the history, and the new write.
  return VerifyTrickleState(engine, plan, 1);
}

uint64_t CountFiles(const std::string& dir) {
  uint64_t files = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) ++files;
  }
  return files;
}

RunResult RunRecovery(Kind kind, const RunOptions& options) {
  RunResult out;
  const TrickleConfig config = HistoryConfig();
  const TricklePlan plan = PlanTrickle(config, options.seed);
  const std::string root = options.work_dir + "/recovery";
  const std::string pristine = root + "/pristine";
  const std::string work = root + "/cycle";
  HostProbe probe;
  if (Status st = HostProbe::Create(options.work_dir + "/probe", &probe);
      !st.ok()) {
    out.Fail("host probe: " + st.ToString());
    return out;
  }

  std::vector<double> setup_s;
  std::vector<Cycle> cycles, traced_cycles;
  std::vector<double> parse_us;
  uint64_t blobs = 0;
  SpanRecorder recorder;
  uint64_t op_id = 0;

  DriveRounds(options, options.trace ? 4 : 3, [&](bool traced) {
    std::error_code ec;
    fs::remove_all(root, ec);
    fs::create_directories(root, ec);
    // Set-up: build the history, then one untimed warm-up cycle.
    const auto s0 = SteadyClock::now();
    Status st = BuildHistory(pristine, config, plan, options.seed);
    Cycle warm;
    if (st.ok()) {
      st = RunCycle(kind, pristine, work, plan, &probe, nullptr, 0, &warm);
    }
    setup_s.push_back(MsBetween(s0, SteadyClock::now()) / 1e3);
    ++out.attempted;
    if (!st.ok()) {
      out.Fail("setup: " + st.ToString());
      return -1.0;
    }
    blobs = CountFiles(pristine);

    SpanThread* tracer = traced ? recorder.ForThread() : nullptr;
    double round_s = 0;
    for (int i = 0; i < kCyclesPerRound; ++i) {
      Cycle c;
      ++out.attempted;
      st = RunCycle(kind, pristine, work, plan, &probe, tracer, ++op_id, &c);
      if (!st.ok()) {
        out.Fail("cycle: " + st.ToString());
        return -1.0;
      }
      round_s += c.timed_ms() / 1e3;
      (traced ? traced_cycles : cycles).push_back(c);
    }
    if (traced) {
      TimeParses({"PROMOTE", kFirstWrite,
                  "SELECT COUNT(*) AS n, SUM(amt) AS total FROM orders"},
                 tracer, &parse_us, out);
    }
    fs::remove_all(root, ec);
    return round_s;
  });

  auto median = [](const std::vector<double>& v, const char* unit) {
    const Percentile p = PercentileOf(v, 0.5);
    return Metric{p.value, unit, p.samples, p.supported};
  };
  // Median over cycles of a cycle figure, as measured (`normalized`
  // false) or scaled to the reference host by the cycle's own probe.
  auto over_cycles = [&](const std::vector<Cycle>& from, auto figure,
                         bool normalized) {
    std::vector<double> v;
    for (const Cycle& c : from) {
      const double ms = figure(c);
      v.push_back(normalized ? HostProbe::Normalize(ms, c.probe_ms) : ms);
    }
    return median(v, "ms");
  };
  auto open = [](const Cycle& c) { return c.open_ms; };
  auto unavailable = [&](const Cycle& c) { return c.unavailable_ms(kind); };
  auto timed = [](const Cycle& c) { return c.timed_ms(); };

  out.end_to_end["setup_s"] = {Median(setup_s), "s", setup_s.size(), true};
  out.end_to_end["open_norm_ms"] = over_cycles(cycles, open, true);
  out.end_to_end["unavailable_norm_ms"] =
      over_cycles(cycles, unavailable, true);
  out.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB", 1, true};
  // For people: the same figures as measured on this host, and the probe.
  out.named = {{"setup_s", out.end_to_end["setup_s"]}};
  out.named.push_back({kind == Kind::kRestart ? "reopen_ms"
                                              : "replica_attach_ms",
                       over_cycles(cycles, open, false)});
  if (kind == Kind::kFailover) {
    out.named.push_back(
        {"promote_ms",
         over_cycles(cycles, [](const Cycle& c) { return c.promote_ms; },
                     false)});
  }
  out.named.push_back(
      {"unavailable_ms", over_cycles(cycles, unavailable, false)});
  out.named.push_back(
      {"host_probe_ms",
       over_cycles(cycles, [](const Cycle& c) { return c.probe_ms; }, false)});
  out.named.push_back({"peak_rss_mb", out.end_to_end["peak_rss_mb"]});

  if (options.trace) {
    auto field = [&](auto member) {
      std::vector<double> v;
      for (const Cycle& c : traced_cycles) v.push_back(static_cast<double>(c.*member));
      return median(v, "");
    };
    out.per_layer["txn.write_ms_p50"] = field(&Cycle::write_ms);
    out.per_layer["engine.open_cpu_ms"] = field(&Cycle::open_cpu_ms);
    out.per_layer["engine.records_replayed"] = field(&Cycle::records_replayed);
    out.per_layer["replica.bootstrap_records"] = field(&Cycle::bootstrap_records);
    out.per_layer["replica.bootstrap_segments"] = field(&Cycle::bootstrap_segments);
    out.per_layer["replica.promote_ms_p50"] = field(&Cycle::promote_ms);
    out.per_layer["replica.promote_tail_records"] =
        field(&Cycle::promote_tail_records);
    Metric read = field(&Cycle::open_read_bytes);
    read.value /= 1024.0 * 1024.0;
    out.per_layer["storage.open_read_mb"] = read;
    out.per_layer["storage.blobs_at_open"] = {static_cast<double>(blobs), "", 1, true};
    polaris::common::WaitStats::Snapshot waits;
    for (const Cycle& c : traced_cycles) AddWaitDelta({}, c.waits, &waits);
    const double traced = static_cast<double>(traced_cycles.size());
    auto wait_us = [&](WaitClass cls) {
      return Ratio(static_cast<double>(waits.classes[static_cast<int>(cls)].total_us),
                   traced);
    };
    out.per_layer["storage.io_wait_us_per_op"] = {
        wait_us(WaitClass::kStoreIo), "", traced_cycles.size(), true};
    out.per_layer["dcp.queue_wait_us_per_op"] = {
        wait_us(WaitClass::kDcpQueue), "", traced_cycles.size(), true};
    const Percentile parse = PercentileOf(parse_us, 0.5);
    out.per_layer["sql.parse_us_p50"] = {parse.value, "", parse.samples,
                                         parse.supported};
    out.per_layer["obs.host_probe_ms"] = field(&Cycle::probe_ms);
    const double untraced50 = over_cycles(cycles, timed, true).value;
    out.per_layer["obs.trace_overhead_frac"] = {
        Ratio(over_cycles(traced_cycles, timed, true).value, untraced50) - 1,
        "", traced_cycles.size(), untraced50 > 0};
    out.layer_table = FormatLayerTable(recorder.SelfTimeByLayer(),
                                       traced_cycles.size()) +
                      FormatWaitTable(waits, traced_cycles.size());
    out.chrome_trace = recorder.ChromeTraceJson();
    FillPerLayer(out, RecoveryLayerCatalog());
  }
  return out;
}

}  // namespace

RunResult RunRestart(const RunOptions& options) {
  return RunRecovery(Kind::kRestart, options);
}

RunResult RunFailover(const RunOptions& options) {
  return RunRecovery(Kind::kFailover, options);
}

}  // namespace perfbench
