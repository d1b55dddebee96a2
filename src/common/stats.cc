#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace asf {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::AddRepeated(double x, std::uint64_t k) {
  if (k == 0) return;
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  // Chan et al. pairwise update with a zero-variance batch of size k.
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(k);
  const double delta = x - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += delta * delta * n1 * n2 / (n1 + n2);
  count_ += k;
  sum_ += x * n2;
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

std::string OnlineStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.4g sd=%.4g min=%.4g max=%.4g",
                static_cast<unsigned long long>(count_), mean(), stddev(),
                min(), max());
  return buf;
}

}  // namespace asf
