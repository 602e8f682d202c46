#ifndef PERFBENCH_ROUNDS_H_
#define PERFBENCH_ROUNDS_H_

#include <malloc.h>

#include <chrono>

#include "workload.h"

namespace perfbench {

/// Each workload runs as rounds: a fresh database (set-up), then a fixed,
/// seeded amount of work (the timed window), then the answer checks. Rounds
/// repeat until the timed windows add up to --seconds, so every round of
/// every run measures the same database doing the same work; a run differs
/// from another only in how many identical rounds it fits.
///
/// In a traced run rounds alternate untraced/traced; the untraced ones
/// only serve as the baseline for the tracing overhead.
///
/// `round(traced)` returns the seconds its timed window took, or a
/// negative value when the round could not run (the run then stops).
template <typename RoundFn>
void DriveRounds(const RunOptions& options, int min_rounds, RoundFn&& round) {
  // Never start a round past this point, so a slow host still finishes
  // well inside the harness's per-run limit.
  constexpr double kStartDeadlineS = 100;
  const auto start = std::chrono::steady_clock::now();
  double timed_s = 0;
  for (int index = 0;; ++index) {
    const double elapsed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
    const bool enough = index >= min_rounds && timed_s >= options.seconds;
    if (enough || (index >= min_rounds && elapsed_s > kStartDeadlineS)) break;
    // Hand memory freed by the previous round back to the system, so every
    // round starts from the same allocator state.
    malloc_trim(0);
    const bool traced = options.trace && index % 2 == 1;
    const double round_s = round(traced);
    if (round_s < 0) break;
    timed_s += round_s;
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_ROUNDS_H_
