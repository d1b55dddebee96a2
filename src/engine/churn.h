#ifndef ASF_ENGINE_CHURN_H_
#define ASF_ENGINE_CHURN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/config.h"

/// \file
/// Query-churn workloads: the server as a long-lived service.
///
/// The paper's model has queries arriving at a server, running under their
/// tolerance protocol, and leaving. A ChurnSpec describes that open
/// population statistically — Poisson arrivals, exponentially distributed
/// lifetimes, a weighted protocol/tolerance mix — and expands, fully
/// deterministically under its seed, into a concrete deployment schedule
/// (QueryDeployments with start/end windows) that RunMultiQuerySystem and
/// SimulationCore execute. `asf_run --churn` and `bench/ooc_churn` build
/// their workloads this way.

namespace asf {

/// One entry of the protocol/tolerance mix a churn workload draws from:
/// a deployment template and its arrival weight.
struct ChurnMixEntry {
  double weight = 1.0;  ///< relative arrival share (need not sum to 1)
  /// What each arrival of this entry deploys: protocol, tolerances, rank
  /// slack, FT options and broadcast model, copied verbatim. Its query
  /// gives the class to draw — its type, and for a rank query its rank
  /// kind (k-NN draws a query point; top-k / bottom-k draw nothing) and
  /// k — unless fixed_shape pins the query as given. The expansion sets
  /// the name and the live window. The default: FT-NRP range queries at
  /// ε+ = ε− = 0.2, with r = 2 and k = 10 should the class be changed.
  QueryDeployment deployment = [] {
    QueryDeployment d;
    d.protocol = ProtocolKind::kFtNrp;
    d.query.k = 10;
    d.fraction = {0.2, 0.2};
    d.rank_r = 2;
    return d;
  }();
  /// When true, every arrival of this entry uses deployment.query verbatim
  /// (the caller pinned the query) instead of drawing its geometry.
  bool fixed_shape = false;
};

/// Upper bound on a churn schedule's arrivals: 2^20, ten times the
/// largest churn run recorded so far. A query costs about 1 KB across its
/// deployment, slot and record, so this bounds a schedule near 1 GB.
inline constexpr std::size_t kMaxChurnArrivals = std::size_t{1} << 20;

/// Statistical description of an open query population.
struct ChurnSpec {
  /// Mean query arrivals per simulated time unit (Poisson process).
  double arrival_rate = 0.1;
  /// Mean query lifetime (exponential). Lifetimes extending beyond the
  /// run horizon simply never retire.
  double mean_lifetime = 200.0;
  /// Arrivals fall in [window_start, horizon).
  SimTime window_start = 0;
  /// Hard cap on the number of arrivals (0 = none). A cap at or below
  /// kMaxChurnArrivals truncates the schedule silently; without one, a
  /// schedule whose expected arrivals exceed that limit is rejected.
  std::size_t max_queries = 0;
  /// Seed of the churn process — independent of the run seed, so the same
  /// schedule can be replayed over different workload randomness.
  std::uint64_t seed = 1;

  /// The protocol/tolerance mix; empty means a default FT-NRP range mix.
  /// Generated query shapes follow the walks' value space: range centers
  /// and k-NN query points are drawn uniformly from [0, 1000], range
  /// widths uniformly from [100, 300] (engine/churn.cc).
  std::vector<ChurnMixEntry> mix;

  Status Validate() const;
};

/// Expands the spec into a deployment schedule for a run of length
/// `duration`: arrival times are a Poisson process over the arrival
/// window, each arrival draws a mix entry by weight, a query shape from
/// the spec's geometry, and an exponential lifetime. Deployments are
/// returned in arrival order, named "churn<i>". Deterministic in
/// (spec, duration); `duration` must be finite and > 0. Unless
/// max_queries caps the schedule at or below kMaxChurnArrivals, more than
/// that many arrivals (expected from the rate and the window, or drawn)
/// is InvalidArgument.
Result<std::vector<QueryDeployment>> ExpandChurn(const ChurnSpec& spec,
                                                 SimTime duration);

/// Highest number of simultaneously live queries in a schedule (resolving
/// start < 0 against `query_start`) — the expected peak population of a
/// run before executing it.
std::size_t PeakConcurrency(const std::vector<QueryDeployment>& deployments,
                            SimTime query_start, SimTime duration);

}  // namespace asf

#endif  // ASF_ENGINE_CHURN_H_
