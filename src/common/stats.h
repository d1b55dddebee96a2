#ifndef ASF_COMMON_STATS_H_
#define ASF_COMMON_STATS_H_

#include <cstdint>
#include <string>

/// \file
/// A Welford mean/variance accumulator with an O(1) run-length add, used
/// by the run record and the experiment harnesses. The engine is serial:
/// each accumulator sees every sample of its quantity, so none is ever
/// merged from parts.

namespace asf {

/// Numerically stable online mean / variance / min / max (Welford).
class OnlineStats {
 public:
  void Add(double x);

  /// Adds `k` samples of the same value `x` in O(1) — the run-length form
  /// of Add the engine uses for per-update answer-size accounting, where
  /// long stretches of updates leave a query's answer unchanged. Matches
  /// k calls of Add(x) up to rounding (Chan et al.'s pairwise update with
  /// a zero-variance batch); k = 0 is a no-op.
  void AddRepeated(double x, std::uint64_t k);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n − 1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

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

}  // namespace asf

#endif  // ASF_COMMON_STATS_H_
