#ifndef ASF_ENGINE_CHURN_H_
#define ASF_ENGINE_CHURN_H_

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

/// One entry of the protocol/tolerance mix a churn workload draws from.
struct ChurnMixEntry {
  double weight = 1.0;  ///< relative arrival share (need not sum to 1)
  ProtocolKind protocol = ProtocolKind::kFtNrp;
  QuerySpec::Type query_type = QuerySpec::Type::kRange;
  /// Rank flavor when query_type is kRank: kNearest draws a k-NN query
  /// point from the value geometry; kMax / kMin are top-k / bottom-k.
  RankKind rank_kind = RankKind::kNearest;
  /// Fraction tolerances for the FT protocols (ignored elsewhere).
  double eps_plus = 0.2;
  double eps_minus = 0.2;
  /// Rank slack for RTP (ignored elsewhere).
  std::size_t rank_r = 2;
  /// Rank requirement for the rank-query protocols.
  std::size_t k = 10;
  FtOptions ft;
  /// Broadcast cost model of the generated deployments (DESIGN.md §3,
  /// note 3).
  BroadcastCostModel broadcast = BroadcastCostModel::kPerRecipient;
  /// When true, every arrival of this entry uses `shape` verbatim (the
  /// caller pinned the query) instead of drawing its geometry from the
  /// spec; query_type/rank_kind/k above are ignored in favor of the
  /// shape's own.
  bool fixed_shape = false;
  QuerySpec shape;
};

/// Statistical description of an open query population.
struct ChurnSpec {
  /// Mean query arrivals per simulated time unit (Poisson process).
  double arrival_rate = 0.1;
  /// Mean query lifetime (exponential). Lifetimes extending beyond the
  /// run horizon simply never retire.
  double mean_lifetime = 200.0;
  /// Arrivals fall in [window_start, horizon).
  SimTime window_start = 0;
  /// Hard cap on the number of arrivals (0 = unlimited).
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
/// (spec, duration); `duration` must be finite and > 0.
Result<std::vector<QueryDeployment>> ExpandChurn(const ChurnSpec& spec,
                                                 SimTime duration);

/// Highest number of simultaneously live queries in a schedule (resolving
/// start < 0 against `query_start`) — the expected peak population of a
/// run before executing it.
std::size_t PeakConcurrency(const std::vector<QueryDeployment>& deployments,
                            SimTime query_start, SimTime duration);

}  // namespace asf

#endif  // ASF_ENGINE_CHURN_H_
