#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, samples.size() - 1);
  p.value = samples[index];
  p.beyond = samples.size() - 1 - index;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
