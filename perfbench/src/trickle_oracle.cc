#include "trickle_oracle.h"

#include <utility>

#include "common/random.h"

namespace perfbench {

using polaris::common::Random;

namespace {

constexpr int64_t kMaxAmt = 1000;
constexpr int64_t kSessionIdStride = 100'000'000;

}  // namespace

std::string SessionTable(int session) {
  return "acct_" + std::to_string(session);
}

std::vector<OrderRow> BaseOrders(const TrickleConfig& config, uint64_t seed) {
  Random rng(seed * 7919 + 1);
  std::vector<OrderRow> rows;
  rows.reserve(config.base_rows);
  for (uint64_t i = 0; i < config.base_rows; ++i) {
    rows.push_back({static_cast<int64_t>(i),
                    static_cast<int64_t>(rng.Uniform(config.customers)),
                    1 + static_cast<int64_t>(rng.Uniform(kMaxAmt))});
  }
  return rows;
}

std::map<int64_t, int64_t> InitialSessionTable(const TrickleConfig& config,
                                               uint64_t seed, int session) {
  Random rng(seed * 104729 + static_cast<uint64_t>(session) + 3);
  std::map<int64_t, int64_t> table;
  for (int64_t k = 0; k < config.session_keys; ++k) {
    table[k] = static_cast<int64_t>(rng.Uniform(kMaxAmt));
  }
  return table;
}

TricklePlan PlanTrickle(const TrickleConfig& config, uint64_t seed) {
  TricklePlan plan;
  std::map<int64_t, int64_t> cust_sum;
  for (const OrderRow& row : BaseOrders(config, seed)) {
    cust_sum[row[1]] += row[2];
    plan.final_orders_sum += row[2];
  }
  plan.final_orders_count = config.base_rows;
  const std::map<int64_t, int64_t> base_cust_sum = cust_sum;

  plan.sessions.resize(config.sessions);
  for (int s = 0; s < config.sessions; ++s) {
    Random rng(seed * 15485863 + static_cast<uint64_t>(s) * 31 + 5);
    std::map<int64_t, int64_t> table = InitialSessionTable(config, seed, s);
    std::map<int64_t, int64_t> own_inserted;  // cust -> amt this session
    const std::string acct = SessionTable(s);
    auto& ops = plan.sessions[s];
    // Exact shares in a seeded order, so every seed does the same amount
    // of each kind of work.
    std::vector<OpKind> deck;
    auto deal = [&](OpKind kind, int pct) {
      for (int i = 0; i < config.ops_per_session * pct / 100; ++i) {
        deck.push_back(kind);
      }
    };
    deal(OpKind::kSelect, config.select_pct);
    deal(OpKind::kUpdate, config.update_pct);
    deal(OpKind::kDelete, config.delete_pct);
    deck.resize(config.ops_per_session, OpKind::kInsert);
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng.Uniform(i)]);
    }
    for (int i = 0; i < config.ops_per_session; ++i) {
      TrickleOp op;
      op.kind = deck[i];
      if (op.kind == OpKind::kSelect) {
        op.kind = OpKind::kSelect;
        op.cust = static_cast<int64_t>(rng.Uniform(config.customers));
        auto base = base_cust_sum.find(op.cust);
        auto own = own_inserted.find(op.cust);
        op.min_sum = (base == base_cust_sum.end() ? 0 : base->second) +
                     (own == own_inserted.end() ? 0 : own->second);
        op.sql = "SELECT SUM(amt) AS total FROM orders WHERE cust = " +
                 std::to_string(op.cust);
        ++plan.read_ops;
      } else if (op.kind == OpKind::kUpdate) {
        op.key = static_cast<int64_t>(rng.Uniform(config.session_keys));
        op.delta = 1 + static_cast<int64_t>(rng.Uniform(9));
        auto it = table.find(op.key);
        if (it != table.end()) {
          it->second += op.delta;
          op.expect_affected = 1;
          plan.user_bytes += 8;
        }
        op.sql = "UPDATE " + acct + " SET v = v + " +
                 std::to_string(op.delta) +
                 " WHERE k = " + std::to_string(op.key);
        ++plan.write_ops;
      } else if (op.kind == OpKind::kDelete) {
        op.key = static_cast<int64_t>(rng.Uniform(config.session_keys));
        op.expect_affected = table.erase(op.key);
        op.sql = "DELETE FROM " + acct + " WHERE k = " + std::to_string(op.key);
        ++plan.write_ops;
      } else {
        op.sql = "INSERT INTO orders VALUES ";
        for (int r = 0; r < config.rows_per_insert; ++r) {
          const OrderRow row{
              static_cast<int64_t>(config.base_rows) +
                  kSessionIdStride * s + int64_t{i} * config.rows_per_insert + r,
              static_cast<int64_t>(rng.Uniform(config.customers)),
              1 + static_cast<int64_t>(rng.Uniform(kMaxAmt))};
          op.rows.push_back(row);
          own_inserted[row[1]] += row[2];
          cust_sum[row[1]] += row[2];
          plan.final_orders_sum += row[2];
          if (r != 0) op.sql += ", ";
          op.sql += "(" + std::to_string(row[0]) + ", " +
                    std::to_string(row[1]) + ", " + std::to_string(row[2]) +
                    ")";
        }
        op.expect_affected = op.rows.size();
        plan.final_orders_count += op.rows.size();
        plan.user_bytes += op.rows.size() * 3 * 8;
        ++plan.write_ops;
      }
      ops.push_back(std::move(op));
    }
    plan.final_session_tables.push_back(std::move(table));
  }
  // Upper bounds need every session's inserts.
  for (auto& ops : plan.sessions) {
    for (auto& op : ops) {
      if (op.kind == OpKind::kSelect) op.max_sum = cust_sum[op.cust];
    }
  }
  return plan;
}

}  // namespace perfbench
