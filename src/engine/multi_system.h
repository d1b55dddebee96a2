#ifndef ASF_ENGINE_MULTI_SYSTEM_H_
#define ASF_ENGINE_MULTI_SYSTEM_H_

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
/// of the single-query system, which is this system with one query
/// (RunSystem runs SystemConfig::Deployment through it).
///
/// What sharing buys: when one value change violates the filters of
/// several queries at once, the source sends ONE physical update message
/// and the server routes it to every affected protocol. The per-query
/// accounting still records a logical update each (so per-query costs
/// remain comparable to single-query runs), while the shared accounting
/// records the physical message count; the difference is the multi-query
/// saving quantified by `bench/ext_multiquery`.

namespace asf {

/// Configuration of a multi-query run: the run-level options plus the
/// deployed queries.
///
/// Each deployment may carry its own lifecycle window: `start` (< 0 means
/// "at query_start", the static-batch default) and `end` (kNeverRetire
/// means the query lives to the horizon). Deployments with explicit
/// windows arrive and leave mid-run — see SimulationCore::AddQuery — and
/// ChurnSpec (engine/churn.h) generates whole schedules of them.
struct MultiQueryConfig : RunOptions {
  std::vector<QueryDeployment> queries;

  /// RunOptions::Validate, then every deployment: a unique non-empty
  /// name, a lifecycle window inside the run, and a protocol that can
  /// serve its query (ValidateDeployment).
  Status Validate() const;
};

/// Per-query and shared outcomes of a multi-query run.
struct MultiQueryResult : RunTotals {
  /// One record per deployment, in deployment order.
  std::vector<QueryRunStats> queries;

  /// Highest number of simultaneously live queries during the run.
  std::size_t peak_live_queries = 0;

  /// Physical update messages actually transmitted (each value change
  /// costs at most one regardless of how many filters it violated).
  std::uint64_t physical_updates = 0;

  /// Sum over queries of logical update messages; the difference to
  /// physical_updates is the sharing saving.
  std::uint64_t LogicalUpdates() const;

  /// Physical maintenance messages: shared updates + every query's probes
  /// and deployments.
  std::uint64_t PhysicalMaintenanceTotal() const;

  /// What running each query in its own single-query system would cost in
  /// maintenance messages (logical view).
  std::uint64_t LogicalMaintenanceTotal() const;
};

/// Builds and runs a multi-query system.
Result<MultiQueryResult> RunMultiQuerySystem(const MultiQueryConfig& config);

}  // namespace asf

#endif  // ASF_ENGINE_MULTI_SYSTEM_H_
