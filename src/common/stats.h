#ifndef ASF_COMMON_STATS_H_
#define ASF_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

/// \file
/// Small online statistics helpers used by experiment harnesses and tests:
/// a Welford mean/variance accumulator and a fixed-width histogram.

namespace asf {

/// Numerically stable online mean / variance / min / max (Welford).
class OnlineStats {
 public:
  void Add(double x);

  /// Adds `k` samples of the same value `x` in O(1) — the run-length form
  /// of Add the engine uses for per-update answer-size accounting, where
  /// long stretches of updates leave a query's answer unchanged.
  /// Equivalent to merging an accumulator holding k copies of x.
  void AddRepeated(double x, std::uint64_t k);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n − 1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const OnlineStats& other);

  /// Calls f(at.Child(part), member) on each member of the exact state,
  /// `self` const or not (engine/record_fields.h): a spilled accumulator
  /// keeps the rounding state no recomputation from summaries could.
  template <typename Self, typename Name, typename F>
  static void VisitState(Self& self, const Name& at, F& f) {
    f(at.Child("count"), self.count_);
    f(at.Child("mean"), self.mean_);
    f(at.Child("m2"), self.m2_);
    f(at.Child("min"), self.min_);
    f(at.Child("max"), self.max_);
    f(at.Child("sum"), self.sum_);
  }

  /// "count=.. mean=.. sd=.. min=.. max=.."
  std::string ToString() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-width histogram over [lo, hi) with out-of-range values clamped to
/// the edge buckets. Used to sanity-check workload generators.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void Add(double x);

  std::size_t num_buckets() const { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t i) const {
    ASF_CHECK(i < counts_.size());
    return counts_[i];
  }
  std::uint64_t total() const { return total_; }

  /// Fraction of mass at or below x (inclusive of x's bucket).
  double CumulativeFraction(double x) const;

  /// Lower edge of bucket i.
  double BucketLo(std::size_t i) const;

 private:
  std::size_t BucketOf(double x) const;

  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace asf

#endif  // ASF_COMMON_STATS_H_
