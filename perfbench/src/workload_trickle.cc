// trickle_dml: four SQL sessions in a closed loop of small explicit
// transactions (BEGIN; one DML; COMMIT) plus point-aggregate reads, all on
// one shared engine over a bench-owned in-memory object store. It drives
// the whole transactional path: sql -> txn -> catalog group commit and
// journal -> lst manifests -> exec DML -> dcp (shared by the sessions) ->
// storage, with STO maintenance at fixed commit counts.

#include <latch>
#include <memory>
#include <thread>

#include "engine/engine.h"
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

using polaris::common::Status;
using polaris::engine::PolarisEngine;
using polaris::format::Value;
using polaris::sql::SqlResult;
using polaris::sql::SqlSession;

// Never more sessions than the 4-core reference host has cores.
constexpr int kSessions = 4;
constexpr int kOpsPerSession = 300;
// Reads whose scan counters the traced rounds probe.
constexpr size_t kProbeQueries = 16;

TrickleConfig Config() {
  TrickleConfig config;
  config.sessions = kSessions;
  config.ops_per_session = kOpsPerSession;
  return config;
}

struct TrickleDb : MemoryDb {
  int64_t orders_id = 0;
  std::vector<int64_t> acct_ids;
};

struct SessionStats {
  std::vector<double> txn_ms, query_ms, begin_us, insert_ms, update_ms,
      delete_ms, commit_ms, sto_ms;
  uint64_t commits = 0;
  uint64_t rows_written = 0;
  uint64_t statements = 0;
  uint64_t conflicts = 0;
  uint64_t attempted = 0;
  std::vector<std::string> failures;

  void Fail(std::string what) { failures.push_back(std::move(what)); }
  void Merge(const SessionStats& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(txn_ms, o.txn_ms);
    cat(query_ms, o.query_ms);
    cat(begin_us, o.begin_us);
    cat(insert_ms, o.insert_ms);
    cat(update_ms, o.update_ms);
    cat(delete_ms, o.delete_ms);
    cat(commit_ms, o.commit_ms);
    cat(sto_ms, o.sto_ms);
    commits += o.commits;
    rows_written += o.rows_written;
    statements += o.statements;
    conflicts += o.conflicts;
    attempted += o.attempted;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  }
};

Status Setup(TrickleDb& db, const TrickleConfig& config, uint64_t seed) {
  POLARIS_RETURN_IF_ERROR(db.Open());
  POLARIS_ASSIGN_OR_RETURN(TrickleTables tables,
                           LoadTrickleTables(db.engine.get(), config, seed));
  db.orders_id = tables.orders;
  db.acct_ids = tables.accts;
  // Warm-up: one full read of the shared table fills the caches the way
  // the first seconds of a long-running system would.
  SqlSession sql(db.engine.get());
  POLARIS_ASSIGN_OR_RETURN(
      SqlResult warm,
      sql.Execute("SELECT COUNT(*) AS n, SUM(amt) AS total FROM orders"));
  if (SingleInt(warm, 0) != static_cast<int64_t>(config.base_rows)) {
    return Status::Corruption("warm-up read saw the wrong base row count");
  }
  return Status::OK();
}

/// STO maintenance a session runs at fixed commit counts. Each session
/// maintains its own table; session 0 also maintains the shared table and
/// the catalog journal, so no two maintenance jobs ever target one table.
void Maintain(TrickleDb& db, int session, SpanThread* tracer, uint64_t op_id,
              SessionStats* st) {
  auto* sto = db.engine->sto();
  auto timed = [&](const char* name, auto&& call) {
    ++st->attempted;
    ScopedSpan span(tracer, name, "sto", op_id);
    const auto t0 = SteadyClock::now();
    Status status = call();
    st->sto_ms.push_back(MsBetween(t0, SteadyClock::now()));
    if (!status.ok()) st->Fail(std::string(name) + ": " + status.ToString());
  };
  const int64_t acct = db.acct_ids[session];
  timed("sto.CompactTable", [&] { return sto->CompactTable(acct).status(); });
  timed("sto.MaybeCheckpoint",
        [&] { return sto->MaybeCheckpoint(acct).status(); });
  if (session != 0) return;
  timed("sto.CompactTable",
        [&] { return sto->CompactTable(db.orders_id).status(); });
  timed("sto.MaybeCheckpoint",
        [&] { return sto->MaybeCheckpoint(db.orders_id).status(); });
  timed("sto.MaintainCatalogJournal",
        [&] { return sto->MaintainCatalogJournal(); });
}

void RunSession(TrickleDb& db, const std::vector<TrickleOp>& ops, int session,
                SpanThread* tracer, std::latch* start, SessionStats* st) {
  SqlSession sql(db.engine.get());
  const uint64_t op_base = static_cast<uint64_t>(session) << 32;
  start->arrive_and_wait();
  for (size_t i = 0; i < ops.size(); ++i) {
    const TrickleOp& op = ops[i];
    const uint64_t op_id = op_base + i;
    ++st->attempted;
    if (op.kind == OpKind::kSelect) {
      ScopedSpan span(tracer, "op.query", "bench", op_id);
      const auto t0 = SteadyClock::now();
      polaris::common::Result<SqlResult> r = [&] {
        ScopedSpan call(tracer, "SqlSession::Execute(SELECT)", "exec", op_id);
        return sql.Execute(op.sql);
      }();
      st->query_ms.push_back(MsBetween(t0, SteadyClock::now()));
      ++st->statements;
      if (!r.ok()) {
        st->Fail(op.sql + ": " + r.status().ToString());
        continue;
      }
      const int64_t sum = SingleInt(*r, 0);
      if (sum < op.min_sum || sum > op.max_sum) {
        st->Fail(op.sql + ": sum " + std::to_string(sum) + " outside [" +
                 std::to_string(op.min_sum) + ", " +
                 std::to_string(op.max_sum) + "]");
      }
      continue;
    }

    ScopedSpan span(tracer, "op.txn", "bench", op_id);
    const auto t0 = SteadyClock::now();
    auto execute = [&](const char* name, const char* layer,
                       const std::string& text) {
      ScopedSpan call(tracer, name, layer, op_id);
      ++st->statements;
      return sql.Execute(text);
    };
    auto begin = execute("SqlSession::Execute(BEGIN)", "txn", "BEGIN");
    const auto t1 = SteadyClock::now();
    const char* dml_name = op.kind == OpKind::kInsert
                               ? "SqlSession::Execute(INSERT)"
                               : op.kind == OpKind::kUpdate
                                     ? "SqlSession::Execute(UPDATE)"
                                     : "SqlSession::Execute(DELETE)";
    auto dml = begin.ok() ? execute(dml_name, "exec", op.sql) : begin;
    const auto t2 = SteadyClock::now();
    auto commit =
        dml.ok() ? execute("SqlSession::Execute(COMMIT)", "txn", "COMMIT") : dml;
    const auto t3 = SteadyClock::now();
    if (!commit.ok()) {
      if (commit.status().IsConflict()) ++st->conflicts;
      if (sql.in_transaction()) (void)sql.Execute("ROLLBACK");
      st->Fail(op.sql + ": " + commit.status().ToString());
      continue;
    }
    if (dml->affected_rows != op.expect_affected) {
      st->Fail(op.sql + ": affected " + std::to_string(dml->affected_rows) +
               ", oracle says " + std::to_string(op.expect_affected));
    }
    st->txn_ms.push_back(MsBetween(t0, t3));
    st->begin_us.push_back(MsBetween(t0, t1) * 1e3);
    st->commit_ms.push_back(MsBetween(t2, t3));
    const double dml_ms = MsBetween(t1, t2);
    if (op.kind == OpKind::kInsert) {
      st->insert_ms.push_back(dml_ms);
    } else if (op.kind == OpKind::kUpdate) {
      st->update_ms.push_back(dml_ms);
    } else {
      st->delete_ms.push_back(dml_ms);
    }
    st->rows_written += op.kind == OpKind::kDelete ? 0 : dml->affected_rows;
    if (++st->commits % kMaintenanceEvery == 0) {
      Maintain(db, session, tracer, op_id, st);
    }
  }
}

/// The query specs of session 0's first reads: the scan probe's input.
std::vector<polaris::engine::QuerySpec> ProbeSpecs(const TricklePlan& plan) {
  std::vector<polaris::engine::QuerySpec> specs;
  for (const TrickleOp& op : plan.sessions[0]) {
    if (op.kind != OpKind::kSelect) continue;
    if (specs.size() == kProbeQueries) break;
    polaris::engine::QuerySpec spec;
    spec.filter.predicates.push_back(polaris::exec::Predicate::Make(
        "cust", polaris::exec::CompareOp::kEq, Value::Int64(op.cust)));
    spec.aggregates = {{polaris::exec::AggFunc::kSum, "amt", "total"}};
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

RunResult RunTrickleDml(const RunOptions& options) {
  RunResult out;
  const TrickleConfig config = Config();
  const TricklePlan plan = PlanTrickle(config, options.seed);

  std::vector<double> setup_s;
  double window_s = 0;
  uint64_t commits = 0;
  std::vector<double> txn_ms, query_ms;        // untraced rounds
  uint64_t written_bytes = 0, user_bytes = 0;  // untraced rounds
  SessionStats traced;                         // traced rounds, merged
  std::vector<double> parse_us;
  SpanRecorder recorder;
  LayerRounds layer_rounds;
  uint64_t traced_ops = 0;
  polaris::common::WaitStats::Snapshot traced_waits;

  DriveRounds(options, options.trace ? 4 : 3, [&](bool is_traced) {
    TrickleDb db;
    const auto s0 = SteadyClock::now();
    Status st = Setup(db, config, options.seed);
    setup_s.push_back(MsBetween(s0, SteadyClock::now()) / 1e3);
    ++out.attempted;  // the set-up itself
    if (!st.ok()) {
      out.Fail("setup: " + st.ToString());
      return -1.0;
    }

    std::vector<SessionStats> stats(kSessions);
    std::vector<SpanThread*> tracers(kSessions, nullptr);
    if (is_traced) {
      for (auto& t : tracers) t = recorder.ForThread();
    }
    Counters before;
    if (is_traced) before = TakeCounters(db.engine.get(), &db.store);
    const StoreCounts store_before = db.store.Snapshot();

    std::latch start(kSessions + 1);
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back(RunSession, std::ref(db), std::cref(plan.sessions[s]),
                           s, tracers[s], &start, &stats[s]);
    }
    start.arrive_and_wait();
    const auto t0 = SteadyClock::now();
    for (auto& t : threads) t.join();
    const double round_s = MsBetween(t0, SteadyClock::now()) / 1e3;
    const StoreCounts store_delta = db.store.Snapshot() - store_before;
    Counters after;
    if (is_traced) after = TakeCounters(db.engine.get(), &db.store);

    SessionStats merged;
    for (const auto& s : stats) merged.Merge(s);
    out.attempted += merged.attempted;
    for (const auto& f : merged.failures) out.Fail(f);
    out.Check(VerifyTrickleState(db.engine.get(), plan, 0), "final state");

    if (!is_traced) {
      window_s += round_s;
      commits += merged.commits;
      txn_ms.insert(txn_ms.end(), merged.txn_ms.begin(), merged.txn_ms.end());
      query_ms.insert(query_ms.end(), merged.query_ms.begin(),
                      merged.query_ms.end());
      written_bytes += store_delta.total_bytes_written();
      user_bytes += plan.user_bytes;
      return round_s;
    }

    // Traced round: per-layer figures.
    traced_ops += merged.attempted;
    AddWaitDelta(before.waits, after.waits, &traced_waits);
    traced.Merge(merged);
    std::vector<std::string> texts = {"BEGIN", "COMMIT"};
    for (const TrickleOp& op : plan.sessions[0]) texts.push_back(op.sql);
    TimeParses(texts, recorder.ForThread(), &parse_us, out);
    AddReadPathLayers(
        before, after,
        ProbeScans(db.engine.get(), "orders", ProbeSpecs(plan), out),
        layer_rounds);

    const double c = static_cast<double>(merged.commits);
    auto put = [&](const std::string& name, double v) {
      layer_rounds[name].push_back(v);
    };
    using polaris::common::WaitClass;
    put("txn.conflicts", static_cast<double>(merged.conflicts));
    put("catalog.commits_per_batch",
        Ratio(static_cast<double>(
                  CounterDelta(before, after, "catalog.commit.committed")),
              static_cast<double>(
                  CounterDelta(before, after, "catalog.commit.batches"))));
    put("catalog.gate_wait_us_per_commit",
        Ratio(WaitUsDelta(before, after, WaitClass::kCommitGate), c));
    put("catalog.barrier_wait_us_per_commit",
        Ratio(WaitUsDelta(before, after, WaitClass::kCommitBarrier), c));
    const StoreCounts d = after.store - before.store;
    auto bytes = [&](BlobClass cls) {
      return static_cast<double>(d.bytes_written[static_cast<int>(cls)]);
    };
    put("catalog.journal_bytes_per_commit", Ratio(bytes(BlobClass::kJournal), c));
    put("catalog.checkpoint_bytes", bytes(BlobClass::kCatalogCheckpoint));
    put("lst.manifest_bytes_per_commit", Ratio(bytes(BlobClass::kManifest), c));
    put("lst.checkpoint_bytes", bytes(BlobClass::kLstCheckpoint));
    put("format.data_bytes_per_row_written",
        Ratio(bytes(BlobClass::kData),
              static_cast<double>(merged.rows_written)));
    put("dcp.queue_wait_us_per_stmt",
        Ratio(WaitUsDelta(before, after, WaitClass::kDcpQueue),
              static_cast<double>(merged.statements)));
    put("storage.puts_per_commit", Ratio(static_cast<double>(d.writes), c));
    for (int i = 0; i < kBlobClassCount; ++i) {
      const auto cls = static_cast<BlobClass>(i);
      if (cls == BlobClass::kOther) continue;
      put(std::string("storage.bytes_written.") + BlobClassName(cls), bytes(cls));
    }
    put("storage.write_amp",
        Ratio(static_cast<double>(d.total_bytes_written()),
              static_cast<double>(plan.user_bytes)));
    put("storage.io_wait_us_per_commit",
        Ratio(WaitUsDelta(before, after, WaitClass::kStoreIo), c));
    put("sto.compactions",
        static_cast<double>(CounterDelta(before, after, "sto.compactions")));
    put("sto.rows_rewritten", static_cast<double>(CounterDelta(
                                  before, after, "sto.compaction.rows_rewritten")));
    put("sto.checkpoints",
        static_cast<double>(CounterDelta(before, after, "sto.checkpoints") +
                            CounterDelta(before, after, "sto.catalog_checkpoints")));
    put("engine.cpu_ms_per_txn",
        Ratio(after.process_cpu_ms - before.process_cpu_ms, c));
    return round_s;
  });

  // --- End-to-end (untraced rounds) ---------------------------------------
  const Percentile txn50 = PercentileOf(txn_ms, 0.50);
  const Percentile txn95 = PercentileOf(txn_ms, 0.95);
  const Percentile q50 = PercentileOf(query_ms, 0.50);
  const Percentile q95 = PercentileOf(query_ms, 0.95);
  const double rss = PeakRssMb();
  const double setup = Median(setup_s);
  const double write_amp = Ratio(static_cast<double>(written_bytes),
                                 static_cast<double>(user_bytes));
  const double txn_rate = Ratio(static_cast<double>(commits), window_s);
  out.end_to_end["setup_s"] = {setup, "s", setup_s.size(), true};
  out.end_to_end["ops_per_s"] = {txn_rate, "1/s", commits, commits > 0};
  out.end_to_end["op_p50_ms"] = {txn50.value, "ms", txn50.samples, txn50.supported};
  out.end_to_end["peak_rss_mb"] = {rss, "MiB", 1, true};
  out.named = {
      {"setup_s", out.end_to_end["setup_s"]},
      {"txn_per_s", out.end_to_end["ops_per_s"]},
      {"txn_p50_ms", out.end_to_end["op_p50_ms"]},
      {"txn_p95_ms", {txn95.value, "ms", txn95.samples, txn95.supported}},
      {"query_p50_ms", {q50.value, "ms", q50.samples, q50.supported}},
      {"query_p95_ms", {q95.value, "ms", q95.samples, q95.supported}},
      {"write_amp", {write_amp, "ratio", user_bytes, user_bytes > 0}},
      {"peak_rss_mb", out.end_to_end["peak_rss_mb"]},
  };

  // --- Per-layer (traced rounds) --------------------------------------------
  if (options.trace) {
    auto pct = [&](const char* name, const std::vector<double>& v, double q) {
      const Percentile p = PercentileOf(v, q);
      out.per_layer[name] = {p.value, "", p.samples, p.supported};
    };
    pct("sql.parse_us_p50", parse_us, 0.5);
    pct("txn.begin_us_p50", traced.begin_us, 0.5);
    pct("txn.commit_ms_p50", traced.commit_ms, 0.5);
    pct("txn.commit_ms_p95", traced.commit_ms, 0.95);
    pct("txn.commit_ms_p99", traced.commit_ms, 0.99);
    pct("exec.insert_ms_p50", traced.insert_ms, 0.5);
    pct("exec.update_ms_p50", traced.update_ms, 0.5);
    pct("exec.delete_ms_p50", traced.delete_ms, 0.5);
    pct("exec.query_ms_p50", traced.query_ms, 0.5);
    pct("sto.maintenance_ms_p50", traced.sto_ms, 0.5);
    for (const auto& [name, values] : layer_rounds) {
      out.per_layer[name] = {Median(values), "", values.size(), true};
    }
    const double untraced = PercentileOf(txn_ms, 0.5).value;
    out.per_layer["obs.trace_overhead_frac"] = {
        Ratio(PercentileOf(traced.txn_ms, 0.5).value, untraced) - 1, "",
        traced.txn_ms.size(), untraced > 0};
    out.layer_table = FormatLayerTable(recorder.SelfTimeByLayer(), traced_ops) +
                      FormatWaitTable(traced_waits, traced_ops);
    out.chrome_trace = recorder.ChromeTraceJson();
    FillPerLayer(out, ReadWriteLayerCatalog());
  }
  return out;
}

}  // namespace perfbench
