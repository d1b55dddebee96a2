#ifndef ASF_COMMON_SIMD_H_
#define ASF_COMMON_SIMD_H_

#include <cstdint>

/// \file
/// Portable SIMD shim for the filter-dispatch hot path.
///
/// One primitive is all the crossing kernel needs: given a scalar value v
/// and up to 64 closed-interval bound pairs (lower[i], upper[i]), produce
/// the 64-bit *inside mask* whose bit i is set iff lower[i] <= v <=
/// upper[i] (both comparisons ordered, so any NaN lane yields 0).
/// Everything else — XOR against the reference bits, OR of the
/// always-fire bits — is plain word arithmetic in the caller
/// (filter/filter_arena.cc).
///
/// The backend is selected at compile time from the target ISA:
///   * AVX2   : 4 doubles per compare, movmskpd accumulates bits (also
///              on AVX-512 hosts: no build tests a wider arm)
///   * scalar : branch-free fallback, one lane at a time, on every other
///              target (aarch64 included: no build tests a vector arm
///              there)
/// Both produce identical masks for identical inputs; the scalar path is
/// the executable specification the AVX2 arm is tested against
/// (tests/filter_arena_test.cc exercises the compiled backend against
/// scalar Filter::OnValueChange on random inputs).
///
/// Contract: the caller evaluates the first n lanes of a 64-lane block,
/// and the sweep covers n rounded up to the vector width. Lanes the sweep
/// reads past n must hold sentinel bounds (lower = +inf, upper = -inf) so
/// they report 0. Values are finite (stream values are finite by
/// construction; only bounds may be ±inf).

#if defined(__AVX2__)
#include <immintrin.h>
#define ASF_SIMD_BACKEND "avx2"
#define ASF_SIMD_LANES 4
#else
#define ASF_SIMD_BACKEND "scalar"
#define ASF_SIMD_LANES 1
#endif

namespace asf {
namespace simd {

/// Human-readable name of the compiled backend ("avx2" or "scalar");
/// surfaced in bench JSON so perf trajectories can attribute
/// wins to vector width.
inline constexpr const char* kBackend = ASF_SIMD_BACKEND;

/// Doubles processed per vector compare (1 for the scalar fallback).
inline constexpr int kLanes = ASF_SIMD_LANES;

/// The backend the *library* — i.e. the FilterArena crossing kernel — was
/// compiled with (defined in simd.cc, which is built with the library's
/// vector flags). kBackend/kLanes above describe the including TU, which
/// may differ: benches report these.
const char* KernelBackend();
int KernelLanes();

/// Aborts with a clear message if the host CPU lacks the ISA the library
/// kernel was compiled for (checked once; no-op on scalar builds).
/// FilterArena calls this on construction so a mismatched binary fails
/// with a diagnosis instead of SIGILL mid-dispatch.
void AssertHostSupportsKernel();

/// Inside mask of the first `n` lanes of a block (1 <= n <= 64): bit i =
/// (lower[i] <= v <= upper[i]). The sweep covers n rounded up to kLanes;
/// the lanes between n and that bound must be sentinel. A constant n of
/// 64 lets the compiler unroll the sweep, which a run-time n does not.
/// `lower`/`upper` need no particular alignment (unaligned loads).
inline std::uint64_t InsideMask(double v, const double* lower,
                                const double* upper, int n) {
#if defined(__AVX2__)
  const __m256d vv = _mm256_set1_pd(v);
  std::uint64_t mask = 0;
  for (int b = 0; b < n; b += 4) {
    const __m256d lo = _mm256_loadu_pd(lower + b);
    const __m256d hi = _mm256_loadu_pd(upper + b);
    const __m256d ge = _mm256_cmp_pd(vv, lo, _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(vv, hi, _CMP_LE_OQ);
    const int bits = _mm256_movemask_pd(_mm256_and_pd(ge, le));
    mask |= static_cast<std::uint64_t>(bits) << b;
  }
  return mask;
#else
  std::uint64_t mask = 0;
  for (int b = 0; b < n; ++b) {
    const std::uint64_t inside =
        static_cast<std::uint64_t>(v >= lower[b]) &
        static_cast<std::uint64_t>(v <= upper[b]);
    mask |= inside << b;
  }
  return mask;
#endif
}

}  // namespace simd
}  // namespace asf

#endif  // ASF_COMMON_SIMD_H_
