#ifndef ASF_COMMON_RNG_H_
#define ASF_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"
#include "common/types.h"

/// \file
/// Deterministic, seedable random number generation with the distributions
/// the paper's workloads require:
///  * uniform            — initial stream values U[0, 1000] (paper §6.2)
///  * exponential        — update inter-arrival, mean 20 time units (§6.2)
///  * normal             — random-walk step N(0, σ) (§6.2)
///  * zipf / lognormal   — synthetic TCP-trace substitution (DESIGN.md §3)
///
/// All experiment randomness flows through Rng so that a (config, seed) pair
/// fully determines a run; tests rely on this for reproducibility.

namespace asf {

/// Derives a well-decorrelated child seed from a base seed and an entity
/// index (splitmix64 finalizer). Used wherever one configured seed must
/// fan out into many independent per-entity generators — most importantly
/// the per-stream walk RNGs, which make a stream's trajectory independent
/// of the rest of the population (stream/random_walk.h).
inline std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d49d35aceb9c8dULL;
  return z ^ (z >> 31);
}

/// A seeded pseudo-random source. Not thread-safe; use one per logical
/// entity or per experiment run.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi) {
    ASF_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    ASF_DCHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (not rate).
  double Exponential(double mean) {
    ASF_DCHECK(mean > 0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    ASF_DCHECK(stddev >= 0);
    if (stddev == 0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Lognormal where the *underlying normal* has the given mu/sigma, i.e.
  /// the median of the result is exp(mu).
  double Lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Bernoulli with probability p of true.
  bool Bernoulli(double p) {
    ASF_DCHECK(p >= 0 && p <= 1);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// A fresh 64-bit value (for deriving child seeds).
  std::uint64_t NextSeed() { return engine_(); }

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Precomputed Zipf(s) sampler over ranks {0, ..., n-1}: P(rank i) ∝
/// 1/(i+1)^s. Used for the skewed per-subnet traffic intensities of the
/// synthetic TCP trace. O(log n) per sample via inverse-CDF binary search.
class ZipfDistribution {
 public:
  /// Builds the CDF for n ranks with skew parameter s ≥ 0 (s = 0 is
  /// uniform).
  ZipfDistribution(std::size_t n, double s);

  /// Draws a rank in [0, n).
  std::size_t Sample(Rng* rng) const;

  /// Probability mass of a given rank.
  double Pmf(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i)
};

}  // namespace asf

#endif  // ASF_COMMON_RNG_H_
