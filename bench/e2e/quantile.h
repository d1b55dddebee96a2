#ifndef ASF_BENCH_E2E_QUANTILE_H_
#define ASF_BENCH_E2E_QUANTILE_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace asf {
namespace e2e {

/// The p-quantile (p in [0, 1]) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty set.
inline double Quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
}

inline double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

}  // namespace e2e
}  // namespace asf

#endif  // ASF_BENCH_E2E_QUANTILE_H_
