#ifndef ASF_ENGINE_MULTI_SYSTEM_H_
#define ASF_ENGINE_MULTI_SYSTEM_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/config.h"
#include "engine/run_result.h"
#include "engine/sim_core.h"

/// \file
/// Multiple continuous queries over one shared stream population — the
/// extension the paper names as future work (§7: "We plan to extend the
/// protocols to support multiple queries").
///
/// Model: each stream source hosts one adaptive filter **per query** (the
/// agent software evaluates all installed constraints on every value
/// change), and each query keeps its own protocol state at the server.
/// Protocol logic and per-query correctness guarantees are exactly those
/// of the single-query system.
///
/// What sharing buys: when one value change violates the filters of
/// several queries at once, the source sends ONE physical update message
/// and the server routes it to every affected protocol. The per-query
/// accounting still records a logical update each (so per-query costs
/// remain comparable to single-query runs), while the shared accounting
/// records the physical message count; the difference is the multi-query
/// saving quantified by `bench/ext_multiquery`.

namespace asf {

// QueryDeployment (one continuous query in a deployment) lives in
// engine/sim_core.h, shared with the single-query entry point.

/// Configuration of a multi-query run.
///
/// Each deployment may carry its own lifecycle window: `start` (< 0 means
/// "at query_start", the static-batch default) and `end` (kNeverRetire
/// means the query lives to the horizon). Deployments with explicit
/// windows arrive and leave mid-run — see SimulationCore::DeployQuery /
/// RetireQuery — and ChurnSpec (engine/churn.h) generates whole schedules
/// of them.
struct MultiQueryConfig {
  SourceSpec source;
  std::vector<QueryDeployment> queries;
  SimTime duration = 1000;
  SimTime query_start = 0;
  std::uint64_t seed = 1;
  OracleOptions oracle;

  /// Message delivery model (DESIGN.md §9); instant by default.
  NetConfig net;

  /// Update-dispatch policy (DESIGN.md §10; see SystemConfig::dispatch).
  DispatchPolicy dispatch = DispatchPolicy::kAuto;

  /// Out-of-core retired-query state (DESIGN.md §13; `asf_run --spill`).
  /// Disabled by default; results are byte-identical either way.
  SpillConfig spill;

  /// Observability attachment (DESIGN.md §14); non-owning, all-null by
  /// default, provably inert on results.
  obs::ObsHooks obs;

  Status Validate() const;
};

/// Per-query and shared outcomes of a multi-query run.
struct MultiQueryResult {
  /// Outcome of one deployed query (same semantics as RunResult).
  struct PerQuery {
    std::string name;
    MessageStats messages;  ///< logical messages attributed to this query
    std::uint64_t updates_reported = 0;
    std::uint64_t reinits = 0;
    OnlineStats answer_size;
    std::uint64_t oracle_checks = 0;
    std::uint64_t oracle_violations = 0;
    double max_f_plus = 0.0;
    double max_f_minus = 0.0;
    std::size_t max_worst_rank = 0;
    /// Violations observed while this query's updates were in transit,
    /// and the staleness of its delivered updates (DESIGN.md §9; both
    /// trivial under instant delivery).
    std::uint64_t oracle_violations_in_flight = 0;
    OnlineStats update_delay;
    /// Live window: Initialization ran at deployed_at; retired_at is the
    /// retirement time (the horizon for queries that never retired).
    SimTime deployed_at = 0;
    SimTime retired_at = 0;
  };

  std::vector<PerQuery> queries;
  std::uint64_t updates_generated = 0;

  /// Highest number of simultaneously live queries during the run.
  std::size_t peak_live_queries = 0;

  /// Physical update messages actually transmitted (each value change
  /// costs at most one regardless of how many filters it violated).
  std::uint64_t physical_updates = 0;

  /// Sum over queries of logical update messages; the difference to
  /// physical_updates is the sharing saving.
  std::uint64_t LogicalUpdates() const;

  /// Run-level network delivery accounting (DESIGN.md §9).
  NetStats net;

  /// Executed dispatch policy and its path accounting (DESIGN.md §10);
  /// performance telemetry only — results are policy-independent.
  DispatchPolicy dispatch_policy = DispatchPolicy::kScan;
  DispatchStats dispatch;

  /// Physical maintenance messages: shared updates + every query's probes
  /// and deployments.
  std::uint64_t PhysicalMaintenanceTotal() const;

  /// What running each query in its own single-query system would cost in
  /// maintenance messages (logical view).
  std::uint64_t LogicalMaintenanceTotal() const;

  double wall_seconds = 0.0;

  /// Out-of-core spill accounting (DESIGN.md §13); all zero when
  /// config.spill is off. Performance telemetry only — the results above
  /// are byte-identical with and without spilling.
  SpillTelemetry spill;
};

/// Builds and runs a multi-query system.
Result<MultiQueryResult> RunMultiQuerySystem(const MultiQueryConfig& config);

}  // namespace asf

#endif  // ASF_ENGINE_MULTI_SYSTEM_H_
