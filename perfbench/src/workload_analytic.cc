// analytic_scan: one SQL session runs the 22-query TpchLikeQueries suite,
// rendered as SQL text, in seeded orders over a bulk-loaded `lineitem`
// that fits the DataCache and has a fixed share of its rows deleted
// through deletion vectors. The read path does nearly all the work (exec
// scan, DV filter and aggregate; format decode; dcp fan-out) and the
// commit path none.

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/engine.h"
#include "layers.h"
#include "proc_stats.h"
#include "query_sql.h"
#include "rounds.h"
#include "sql/session.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

using polaris::common::Status;
using polaris::engine::PolarisEngine;
using polaris::engine::QuerySpec;
using polaris::exec::AggFunc;
using polaris::format::ColumnType;
using polaris::format::RecordBatch;
using polaris::format::Row;
using polaris::format::Value;
using polaris::sql::SqlResult;
using polaris::sql::SqlSession;

constexpr uint64_t kRows = 200'000;
constexpr uint32_t kSourceFiles = 8;
// Rows with l_partkey <= this are deleted (l_partkey is uniform on
// [1, 200000], so about 10% of the rows, spread over every file).
constexpr int64_t kDeletedPartkeyMax = 20'000;
constexpr int kPassesPerRound = 4;

using Answer = std::vector<Row>;  // rows sorted by their group-by prefix

struct Query {
  std::string name;
  QuerySpec spec;
  std::string sql;
};

bool Matches(const QuerySpec& spec, const RecordBatch& batch, size_t r,
             const std::vector<int>& pred_cols) {
  for (size_t i = 0; i < spec.filter.predicates.size(); ++i) {
    const auto& p = spec.filter.predicates[i];
    const Value v = batch.column(pred_cols[i]).ValueAt(r);
    const int c = v.Compare(p.literal);
    bool ok = false;
    switch (p.op) {
      case polaris::exec::CompareOp::kEq: ok = c == 0; break;
      case polaris::exec::CompareOp::kNe: ok = c != 0; break;
      case polaris::exec::CompareOp::kLt: ok = c < 0; break;
      case polaris::exec::CompareOp::kLe: ok = c <= 0; break;
      case polaris::exec::CompareOp::kGt: ok = c > 0; break;
      case polaris::exec::CompareOp::kGe: ok = c >= 0; break;
    }
    if (!ok) return false;
  }
  return true;
}

void SortAnswer(Answer& rows, size_t key_columns) {
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < key_columns; ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
}

/// Row-at-a-time evaluation of one query over the generated rows, minus
/// the deleted ones: the reference the engine's answers are checked
/// against.
Answer Oracle(const QuerySpec& spec, const std::vector<RecordBatch>& sources) {
  struct Acc {
    std::vector<double> sum;
    std::vector<int64_t> count;
  };
  std::map<std::vector<std::string>, std::pair<Row, Acc>> groups;
  const size_t n_aggs = spec.aggregates.size();
  for (const RecordBatch& batch : sources) {
    const auto& schema = batch.schema();
    std::vector<int> pred_cols, group_cols, agg_cols;
    for (const auto& p : spec.filter.predicates) {
      pred_cols.push_back(schema.FindColumn(p.column));
    }
    for (const auto& g : spec.group_by) group_cols.push_back(schema.FindColumn(g));
    for (const auto& a : spec.aggregates) {
      agg_cols.push_back(a.column.empty() ? -1 : schema.FindColumn(a.column));
    }
    const int partkey = schema.FindColumn("l_partkey");
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      if (batch.column(partkey).Int64At(r) <= kDeletedPartkeyMax) continue;
      if (!Matches(spec, batch, r, pred_cols)) continue;
      std::vector<std::string> key;
      Row key_values;
      for (int g : group_cols) {
        key_values.push_back(batch.column(g).ValueAt(r));
        key.push_back(key_values.back().ToString());
      }
      auto [it, fresh] = groups.try_emplace(key);
      if (fresh) {
        it->second.first = key_values;
        it->second.second.sum.assign(n_aggs, 0);
        it->second.second.count.assign(n_aggs, 0);
      }
      Acc& acc = it->second.second;
      for (size_t a = 0; a < n_aggs; ++a) {
        if (agg_cols[a] >= 0) {
          const Value v = batch.column(agg_cols[a]).ValueAt(r);
          acc.sum[a] += v.type == ColumnType::kDouble ? v.f64
                                                      : static_cast<double>(v.i64);
        }
        ++acc.count[a];
      }
    }
  }
  Answer answer;
  for (auto& [key, entry] : groups) {
    Row row = entry.first;
    const Acc& acc = entry.second;
    for (size_t a = 0; a < n_aggs; ++a) {
      switch (spec.aggregates[a].func) {
        case AggFunc::kCount:
          row.push_back(Value::Int64(acc.count[a]));
          break;
        case AggFunc::kAvg:
          row.push_back(Value::Double(acc.sum[a] / static_cast<double>(acc.count[a])));
          break;
        default:  // the suite only sums DOUBLE columns
          row.push_back(Value::Double(acc.sum[a]));
          break;
      }
    }
    answer.push_back(std::move(row));
  }
  SortAnswer(answer, spec.group_by.size());
  return answer;
}

Answer FromBatch(const RecordBatch& batch, size_t key_columns) {
  Answer answer;
  for (size_t r = 0; r < batch.num_rows(); ++r) answer.push_back(batch.GetRow(r));
  SortAnswer(answer, key_columns);
  return answer;
}

/// Equal up to floating-point summation order.
bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      if (x.type != y.type || x.is_null != y.is_null) return false;
      if (x.type == ColumnType::kDouble) {
        const double tol = 1e-9 * std::max(1.0, std::fabs(y.f64));
        if (std::fabs(x.f64 - y.f64) > tol) return false;
      } else if (x.Compare(y) != 0) {
        return false;
      }
    }
  }
  return true;
}

struct AnalyticDb : MemoryDb {};

Status Setup(AnalyticDb& db, const std::vector<RecordBatch>& sources,
             const std::vector<Query>& queries,
             const std::vector<Answer>& oracle,
             std::vector<Answer>* warm) {
  POLARIS_RETURN_IF_ERROR(db.Open());
  PolarisEngine* engine = db.engine.get();
  POLARIS_RETURN_IF_ERROR(
      engine->CreateTable("lineitem", polaris::bench::LineitemSchema(),
                          "l_shipdate")
          .status());
  POLARIS_RETURN_IF_ERROR(
      engine->RunInTransaction([&](polaris::txn::Transaction* txn) {
        return engine->BulkLoad(txn, "lineitem", sources).status();
      }));
  SqlSession sql(engine);
  POLARIS_RETURN_IF_ERROR(
      sql.Execute("DELETE FROM lineitem WHERE l_partkey <= " +
                  std::to_string(kDeletedPartkeyMax))
          .status());
  // Untimed warm-up pass; its answers are checked against the oracle and
  // become the reference for every timed pass.
  warm->clear();
  for (size_t i = 0; i < queries.size(); ++i) {
    POLARIS_ASSIGN_OR_RETURN(auto result, sql.Execute(queries[i].sql));
    warm->push_back(FromBatch(result.batch, queries[i].spec.group_by.size()));
    if (!SameAnswer(warm->back(), oracle[i])) {
      return Status::Corruption(queries[i].name + " differs from the oracle");
    }
  }
  return Status::OK();
}

}  // namespace

RunResult RunAnalyticScan(const RunOptions& options) {
  RunResult out;
  const std::vector<RecordBatch> sources =
      polaris::bench::GenerateLineitemSources(kRows, kSourceFiles, options.seed);
  std::vector<Query> queries;
  for (auto& named : polaris::bench::TpchLikeQueries()) {
    auto sql = RenderQuerySql("lineitem", named.spec);
    if (!sql.ok()) {
      out.Fail(named.name + ": " + sql.status().ToString());
      return out;
    }
    queries.push_back({named.name, named.spec, *sql});
  }
  std::vector<Answer> oracle;
  std::vector<std::string> texts;
  std::vector<QuerySpec> specs;
  for (const Query& q : queries) {
    oracle.push_back(Oracle(q.spec, sources));
    texts.push_back(q.sql);
    specs.push_back(q.spec);
  }

  // Seeded query orders, one per pass; identical in every round.
  std::vector<std::vector<size_t>> orders(kPassesPerRound);
  polaris::common::Random rng(options.seed * 2654435761u + 17);
  for (auto& order : orders) {
    for (size_t i = 0; i < queries.size(); ++i) order.push_back(i);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
  }

  std::vector<double> setup_s, query_ms, traced_query_ms, parse_us;
  double window_s = 0;
  SpanRecorder recorder;
  LayerRounds layer_rounds;
  uint64_t traced_ops = 0;
  polaris::common::WaitStats::Snapshot traced_waits;

  DriveRounds(options, options.trace ? 4 : 3, [&](bool traced) {
    AnalyticDb db;
    std::vector<Answer> warm;
    const auto s0 = SteadyClock::now();
    Status st = Setup(db, sources, queries, oracle, &warm);
    setup_s.push_back(MsBetween(s0, SteadyClock::now()) / 1e3);
    ++out.attempted;  // the set-up itself
    if (!st.ok()) {
      out.Fail("setup: " + st.ToString());
      return -1.0;
    }
    SpanThread* tracer = traced ? recorder.ForThread() : nullptr;
    SqlSession sql(db.engine.get());
    Counters before;
    if (traced) before = TakeCounters(db.engine.get(), &db.store);
    std::vector<double>& latencies = traced ? traced_query_ms : query_ms;

    // The answers are checked after the window closes, so the window
    // holds only the engine's work.
    std::vector<std::pair<size_t, polaris::common::Result<SqlResult>>> results;
    results.reserve(orders.size() * queries.size());
    const auto t0 = SteadyClock::now();
    uint64_t op_id = 0;
    for (const auto& order : orders) {
      for (size_t qi : order) {
        ScopedSpan span(tracer, "op.query", "bench", ++op_id);
        const auto q0 = SteadyClock::now();
        auto result = [&] {
          ScopedSpan call(tracer, "SqlSession::Execute(SELECT)", "exec", op_id);
          return sql.Execute(queries[qi].sql);
        }();
        latencies.push_back(MsBetween(q0, SteadyClock::now()));
        results.emplace_back(qi, std::move(result));
      }
    }
    const double round_s = MsBetween(t0, SteadyClock::now()) / 1e3;
    for (const auto& [qi, result] : results) {
      ++out.attempted;
      if (!result.ok()) {
        out.Fail(queries[qi].name + ": " + result.status().ToString());
      } else if (!SameAnswer(FromBatch(result->batch,
                                       queries[qi].spec.group_by.size()),
                             warm[qi])) {
        out.Fail(queries[qi].name + " differs from the warm-up pass");
      }
    }
    if (!traced) {
      window_s += round_s;
      return round_s;
    }

    const Counters after = TakeCounters(db.engine.get(), &db.store);
    traced_ops += op_id;
    AddWaitDelta(before.waits, after.waits, &traced_waits);
    TimeParses(texts, tracer, &parse_us, out);
    AddReadPathLayers(before, after,
                      ProbeScans(db.engine.get(), "lineitem", specs, out),
                      layer_rounds);
    auto put = [&](const std::string& name, double v) {
      layer_rounds[name].push_back(v);
    };
    using polaris::common::WaitClass;
    const double q =
        static_cast<double>(after.selects.count - before.selects.count);
    put("dcp.queue_wait_us_per_stmt",
        Ratio(WaitUsDelta(before, after, WaitClass::kDcpQueue), q));
    put("engine.cpu_ms_per_query",
        Ratio(after.process_cpu_ms - before.process_cpu_ms, q));
    return round_s;
  });

  const Percentile p50 = PercentileOf(query_ms, 0.50);
  const Percentile p95 = PercentileOf(query_ms, 0.95);
  const double setup = Median(setup_s);
  const double rss = PeakRssMb();
  const double rate = Ratio(static_cast<double>(query_ms.size()), window_s);
  out.end_to_end["setup_s"] = {setup, "s", setup_s.size(), true};
  out.end_to_end["ops_per_s"] = {rate, "1/s", query_ms.size(), !query_ms.empty()};
  out.end_to_end["op_p50_ms"] = {p50.value, "ms", p50.samples, p50.supported};
  out.end_to_end["peak_rss_mb"] = {rss, "MiB", 1, true};
  out.named = {
      {"setup_s", out.end_to_end["setup_s"]},
      {"queries_per_s", out.end_to_end["ops_per_s"]},
      {"query_p50_ms", out.end_to_end["op_p50_ms"]},
      {"query_p95_ms", {p95.value, "ms", p95.samples, p95.supported}},
      {"peak_rss_mb", out.end_to_end["peak_rss_mb"]},
  };

  if (options.trace) {
    const Percentile parse = PercentileOf(parse_us, 0.5);
    out.per_layer["sql.parse_us_p50"] = {parse.value, "", parse.samples,
                                         parse.supported};
    const Percentile traced50 = PercentileOf(traced_query_ms, 0.5);
    out.per_layer["exec.query_ms_p50"] = {traced50.value, "", traced50.samples,
                                          traced50.supported};
    for (const auto& [name, values] : layer_rounds) {
      out.per_layer[name] = {Median(values), "", values.size(), true};
    }
    out.per_layer["obs.trace_overhead_frac"] = {
        Ratio(traced50.value, p50.value) - 1, "", traced_query_ms.size(),
        p50.value > 0};
    out.layer_table = FormatLayerTable(recorder.SelfTimeByLayer(), traced_ops) +
                      FormatWaitTable(traced_waits, traced_ops);
    out.chrome_trace = recorder.ChromeTraceJson();
    FillPerLayer(out, ReadWriteLayerCatalog());
  }
  return out;
}

}  // namespace perfbench
