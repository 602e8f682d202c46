#ifndef PERFBENCH_TRICKLE_ORACLE_H_
#define PERFBENCH_TRICKLE_ORACLE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Shape of a trickle-DML history: a shared, bulk-loaded `orders(id, cust,
/// amt)` table that only receives inserts, plus one `acct_<s>(k, v)` table
/// per session that only its own session updates and deletes. Inserts never
/// conflict and no two sessions write the same table transactionally, so
/// the final state is a pure function of the seed.
struct TrickleConfig {
  int sessions = 4;
  int ops_per_session = 300;
  uint64_t base_rows = 20000;
  int64_t customers = 1000;
  int64_t session_keys = 256;
  int rows_per_insert = 8;
  /// Exact percent shares of each session's op stream, dealt in a seeded
  /// order; the remainder are inserts.
  int select_pct = 15;
  int update_pct = 15;
  int delete_pct = 10;
};

using OrderRow = std::array<int64_t, 3>;  // id, cust, amt

enum class OpKind { kInsert, kUpdate, kDelete, kSelect };

/// One client operation. Writes run as BEGIN; <sql>; COMMIT, reads as one
/// auto-commit SELECT.
struct TrickleOp {
  OpKind kind = OpKind::kInsert;
  std::string sql;
  std::vector<OrderRow> rows;  // kInsert
  int64_t key = 0;             // kUpdate / kDelete
  int64_t delta = 0;           // kUpdate
  int64_t cust = 0;            // kSelect
  /// Rows the statement must report affected (kInsert/kUpdate/kDelete).
  uint64_t expect_affected = 0;
  /// kSelect: SUM(amt) for `cust` must lie in [min_sum, max_sum] — at
  /// least the base plus this session's own earlier inserts, at most the
  /// final total once every session has finished.
  int64_t min_sum = 0;
  int64_t max_sum = 0;
};

std::string SessionTable(int session);

/// The bulk-loaded base of `orders` (ids 0..base_rows-1).
std::vector<OrderRow> BaseOrders(const TrickleConfig& config, uint64_t seed);

/// A session table's initial contents, key -> v.
std::map<int64_t, int64_t> InitialSessionTable(const TrickleConfig& config,
                                               uint64_t seed, int session);

/// The oracle: every session's op stream with its expected outcomes, and
/// the final state they must leave behind.
struct TricklePlan {
  std::vector<std::vector<TrickleOp>> sessions;
  uint64_t final_orders_count = 0;
  int64_t final_orders_sum = 0;
  std::vector<std::map<int64_t, int64_t>> final_session_tables;
  /// Bytes of user data the writes carry: 8 B per BIGINT cell inserted or
  /// set (a DELETE carries none).
  uint64_t user_bytes = 0;
  uint64_t write_ops = 0;
  uint64_t read_ops = 0;
};

TricklePlan PlanTrickle(const TrickleConfig& config, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_TRICKLE_ORACLE_H_
