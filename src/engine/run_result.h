#ifndef ASF_ENGINE_RUN_RESULT_H_
#define ASF_ENGINE_RUN_RESULT_H_

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "engine/spill_config.h"
#include "filter/dispatch.h"
#include "net/message_stats.h"
#include "net/network_model.h"

/// \file
/// Everything a simulated run reports back: one QueryRunStats per deployed
/// query plus the run-level RunTotals. A single-query run's RunResult is
/// exactly those two for its one query; MultiQueryResult
/// (engine/multi_system.h) holds one record per query.

namespace asf {

/// Outcome of one deployed query — the only per-query record: the engine
/// accumulates it, MultiQueryResult::queries holds one per deployment, and
/// RunResult is one plus the run totals.
struct QueryRunStats {
  std::string name;
  /// Logical messages attributed to this query, per phase and type.
  /// `messages.MaintenanceTotal()` is the paper's headline metric.
  MessageStats messages;
  /// Updates that crossed one of this query's filters and reached the
  /// server.
  std::uint64_t updates_reported = 0;
  /// Full protocol re-initializations after deployment.
  std::uint64_t reinits = 0;

  /// Streams holding the silent [−∞,∞] / [∞,∞] filters right after
  /// initialization — the sources that are completely shut down (the
  /// paper's sensor-battery saving, §5.1.1).
  std::size_t fp_filters_installed = 0;
  std::size_t fn_filters_installed = 0;

  /// Distribution of |A(t)| sampled after every update generated in the
  /// live window.
  OnlineStats answer_size;

  // --- Oracle observations (all zero when the oracle is off) ---
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_violations = 0;
  double max_f_plus = 0.0;         ///< worst observed F+(t)
  double max_f_minus = 0.0;        ///< worst observed F−(t)
  std::size_t max_worst_rank = 0;  ///< worst observed max-rank over A(t)

  /// Violations the oracle observed while at least one update payload for
  /// this query was still in transit — the share of errors attributable
  /// to delivery delay rather than filter slack (DESIGN.md §9). Always a
  /// subset of oracle_violations; zero under instant delivery.
  std::uint64_t oracle_violations_in_flight = 0;
  /// Staleness of this query's delivered updates (delivery time minus
  /// crossing time, one sample each). Empty under instant delivery.
  OnlineStats update_delay;

  /// The live window [deployed_at, retired_at]: Initialization ran at
  /// deployed_at; retired_at is the retire event's time, or the run
  /// horizon for queries that never retired. Everything above is
  /// accumulated inside this window only.
  SimTime deployed_at = 0;
  SimTime retired_at = 0;
};

/// Run-level totals every run reports, however many queries it deployed.
struct RunTotals {
  /// Value changes generated while at least one query was live.
  std::uint64_t updates_generated = 0;

  /// Run-level network accounting (wire messages, coalescing, drops;
  /// DESIGN.md §9).
  NetStats net;

  /// The dispatch policy the engine actually executed (after the
  /// ASF_DISPATCH resolution) and its path accounting (DESIGN.md §10).
  /// Purely performance telemetry: results are byte-identical under
  /// every policy.
  DispatchPolicy dispatch_policy = DispatchPolicy::kScan;
  DispatchStats dispatch;

  /// Host wall-clock seconds consumed by the run.
  double wall_seconds = 0.0;

  /// Out-of-core spill accounting (DESIGN.md §13); all zero when spilling
  /// is off. Telemetry only — results are byte-identical with and without
  /// spilling.
  SpillTelemetry spill;
};

/// Outcome of a single-query run (RunSystem): the query's record plus the
/// run totals.
struct RunResult : QueryRunStats, RunTotals {
  /// The paper's metric.
  std::uint64_t MaintenanceMessages() const {
    return messages.MaintenanceTotal();
  }
};

}  // namespace asf

#endif  // ASF_ENGINE_RUN_RESULT_H_
