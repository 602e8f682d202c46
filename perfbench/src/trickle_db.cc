#include "trickle_db.h"

#include <map>
#include <string>

namespace perfbench {

using polaris::common::Result;
using polaris::common::Status;
using polaris::engine::PolarisEngine;
using polaris::format::RecordBatch;
using polaris::format::Value;
using polaris::sql::SqlResult;
using polaris::sql::SqlSession;

int64_t SingleInt(const SqlResult& result, size_t column) {
  if (result.batch.num_rows() != 1) return -1;
  const Value v = result.batch.GetRow(0)[column];
  return v.is_null ? 0 : v.i64;
}

Result<TrickleTables> LoadTrickleTables(PolarisEngine* engine,
                                        const TrickleConfig& config,
                                        uint64_t seed) {
  TrickleTables tables;
  SqlSession sql(engine);
  POLARIS_RETURN_IF_ERROR(
      sql.Execute("CREATE TABLE orders (id BIGINT, cust BIGINT, amt BIGINT)")
          .status());
  POLARIS_ASSIGN_OR_RETURN(auto orders, engine->GetTable("orders"));
  tables.orders = orders.table_id;
  std::vector<RecordBatch> sources(4, RecordBatch(orders.schema));
  const std::vector<OrderRow> base = BaseOrders(config, seed);
  for (size_t i = 0; i < base.size(); ++i) {
    POLARIS_RETURN_IF_ERROR(sources[i % sources.size()].AppendRow(
        {Value::Int64(base[i][0]), Value::Int64(base[i][1]),
         Value::Int64(base[i][2])}));
  }
  POLARIS_RETURN_IF_ERROR(
      engine->RunInTransaction([&](polaris::txn::Transaction* txn) {
        return engine->BulkLoad(txn, "orders", sources).status();
      }));

  for (int s = 0; s < config.sessions; ++s) {
    const std::string table = SessionTable(s);
    POLARIS_RETURN_IF_ERROR(
        sql.Execute("CREATE TABLE " + table + " (k BIGINT, v BIGINT)")
            .status());
    POLARIS_ASSIGN_OR_RETURN(auto meta, engine->GetTable(table));
    tables.accts.push_back(meta.table_id);
    RecordBatch rows(meta.schema);
    for (const auto& [k, v] : InitialSessionTable(config, seed, s)) {
      POLARIS_RETURN_IF_ERROR(
          rows.AppendRow({Value::Int64(k), Value::Int64(v)}));
    }
    POLARIS_RETURN_IF_ERROR(
        engine->RunInTransaction([&](polaris::txn::Transaction* txn) {
          return engine->Insert(txn, table, rows).status();
        }));
  }
  return tables;
}

Status VerifyTrickleState(PolarisEngine* engine, const TricklePlan& plan,
                          int64_t extra_orders) {
  SqlSession sql(engine);
  POLARIS_ASSIGN_OR_RETURN(
      SqlResult totals,
      sql.Execute("SELECT COUNT(*) AS n, SUM(amt) AS total FROM orders"));
  const int64_t want_count =
      static_cast<int64_t>(plan.final_orders_count) + extra_orders;
  const int64_t want_sum = plan.final_orders_sum + extra_orders;
  if (SingleInt(totals, 0) != want_count || SingleInt(totals, 1) != want_sum) {
    return Status::Corruption(
        "orders count/sum " + std::to_string(SingleInt(totals, 0)) + "/" +
        std::to_string(SingleInt(totals, 1)) + ", oracle " +
        std::to_string(want_count) + "/" + std::to_string(want_sum));
  }
  for (size_t s = 0; s < plan.final_session_tables.size(); ++s) {
    const std::string table = SessionTable(static_cast<int>(s));
    POLARIS_ASSIGN_OR_RETURN(SqlResult rows,
                             sql.Execute("SELECT k, v FROM " + table));
    std::map<int64_t, int64_t> seen;
    for (size_t r = 0; r < rows.batch.num_rows(); ++r) {
      auto row = rows.batch.GetRow(r);
      seen[row[0].i64] = row[1].i64;
    }
    if (seen != plan.final_session_tables[s] ||
        seen.size() != rows.batch.num_rows()) {
      return Status::Corruption(table + " differs from the oracle");
    }
  }
  return Status::OK();
}

}  // namespace perfbench
