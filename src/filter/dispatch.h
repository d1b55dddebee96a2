#ifndef ASF_FILTER_DISPATCH_H_
#define ASF_FILTER_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

/// \file
/// How a value change is dispatched against the live filter population
/// (DESIGN.md §10).
///
///  * kScan: the SIMD crossing kernel sweeps the whole SoA strip —
///    O(live) per update with a tiny constant; unbeatable for small
///    populations.
///  * kIndex: a per-stream stabbing index over the filter bounds finds
///    exactly the columns whose membership *changes* between the previous
///    and the new value — O(log live + crossings) per update, the
///    output-sensitive path that keeps dispatch flat at Q in the
///    hundreds of thousands.
///  * kAuto: per dispatch, pick kScan below the measured crossover
///    population and kIndex above it.
///
/// Every policy produces byte-identical fired sets and membership
/// references (tests/interval_index_test.cc); the choice is purely a
/// performance trade.

namespace asf {

enum class DispatchPolicy : int { kScan = 0, kIndex = 1, kAuto = 2 };

/// The kAuto scan→index crossover: live-column count at or above which
/// auto dispatch takes the index path. Measured with
/// bench/micro_dispatch's crossover series (EXPERIMENTS.md): under the
/// small-step workloads the index targets, the SIMD scan wins at Q=64
/// (~1.8x) and the index already wins ~3.8x by Q=1k, so the break-even
/// sits in the low hundreds; 256 splits that bracket so auto stays
/// within noise of the better policy at every measured point.
inline constexpr std::size_t kDefaultAutoCrossover = 256;

inline std::string_view DispatchPolicyName(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kScan:
      return "scan";
    case DispatchPolicy::kIndex:
      return "index";
    case DispatchPolicy::kAuto:
      return "auto";
  }
  return "?";
}

/// Parses "scan" / "index" / "auto"; returns false on anything else.
inline bool ParseDispatchPolicy(std::string_view name,
                                DispatchPolicy* policy) {
  if (name == "scan") {
    *policy = DispatchPolicy::kScan;
  } else if (name == "index") {
    *policy = DispatchPolicy::kIndex;
  } else if (name == "auto") {
    *policy = DispatchPolicy::kAuto;
  } else {
    return false;
  }
  return true;
}

/// Resolves the policy an engine actually runs: an explicit scan/index
/// configuration wins outright; kAuto may be overridden by the
/// ASF_DISPATCH environment variable ("scan" / "index" / "auto"), the
/// hook CI's sanitize matrix uses to force the index path through every
/// test without touching configs. Unparseable values are ignored.
inline DispatchPolicy ResolveDispatchPolicy(DispatchPolicy configured) {
  if (configured != DispatchPolicy::kAuto) return configured;
  if (const char* env = std::getenv("ASF_DISPATCH")) {
    DispatchPolicy parsed;
    if (ParseDispatchPolicy(env, &parsed)) return parsed;
  }
  return configured;
}

/// Dispatch-path accounting of one arena.
struct DispatchStats {
  std::uint64_t scan_dispatches = 0;   ///< updates served by the kernel scan
  std::uint64_t index_dispatches = 0;  ///< updates served by the index
  std::uint64_t index_rebuilds = 0;    ///< per-stream snapshot rebuilds
  /// Highest rebuild count any single stream accumulated — the thrash
  /// indicator per-stream amortization must keep bounded.
  std::uint64_t max_stream_rebuilds = 0;
};

}  // namespace asf

#endif  // ASF_FILTER_DISPATCH_H_
