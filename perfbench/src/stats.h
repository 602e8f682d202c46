#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile together with the evidence behind it.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  /// Samples strictly above the chosen rank.
  size_t beyond = 0;
  /// The reporting rule: a percentile is only supported by a sample when at
  /// least kMinBeyond samples lie beyond it (so p95 needs >= 200 samples,
  /// the median >= 20).
  bool supported = false;
};

inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile of `samples` (q in (0, 1]). An empty sample
/// yields value 0, unsupported.
Percentile PercentileOf(std::vector<double> samples, double q);

/// Plain median (mean of the two middle values for even counts); used for
/// aggregating a handful of per-round figures, where no tail is claimed.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
