#ifndef PERFBENCH_TRICKLE_DB_H_
#define PERFBENCH_TRICKLE_DB_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "sql/session.h"
#include "trickle_oracle.h"

namespace perfbench {

/// A trickle history runs STO maintenance after every this-many commits.
inline constexpr uint64_t kMaintenanceEvery = 25;

/// Table ids of a loaded trickle database.
struct TrickleTables {
  int64_t orders = 0;
  std::vector<int64_t> accts;  // one per session
};

/// Creates `orders` and the per-session tables through SQL, bulk-loads the
/// base of `orders` from four source batches (one DCP task each) and
/// inserts each session table's initial rows.
polaris::common::Result<TrickleTables> LoadTrickleTables(
    polaris::engine::PolarisEngine* engine, const TrickleConfig& config,
    uint64_t seed);

/// Checks the database against the oracle's final state: `orders` count
/// and sum (plus `extra_orders` later rows of amount 1), and every session
/// table row for row.
polaris::common::Status VerifyTrickleState(
    polaris::engine::PolarisEngine* engine, const TricklePlan& plan,
    int64_t extra_orders);

/// Integer cell of a one-row result (NULL reads as 0; -1 when the result
/// does not have exactly one row).
int64_t SingleInt(const polaris::sql::SqlResult& result, size_t column);

}  // namespace perfbench

#endif  // PERFBENCH_TRICKLE_DB_H_
