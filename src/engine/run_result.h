#ifndef ASF_ENGINE_RUN_RESULT_H_
#define ASF_ENGINE_RUN_RESULT_H_

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "engine/spill_config.h"
#include "filter/dispatch.h"
#include "net/message_stats.h"
#include "net/network_model.h"

/// \file
/// Everything one simulated run reports back.

namespace asf {

/// Aggregated outcome of a run.
struct RunResult {
  /// Per-type, per-phase message counts. `messages.MaintenanceTotal()` is
  /// the paper's headline metric.
  MessageStats messages;

  /// Value changes generated while the query was live.
  std::uint64_t updates_generated = 0;
  /// Updates that crossed a filter and reached the server.
  std::uint64_t updates_reported = 0;
  /// Full protocol re-initializations after query start.
  std::uint64_t reinits = 0;

  /// Streams holding the silent [−∞,∞] / [∞,∞] filters right after
  /// initialization — the sources that are completely shut down (the
  /// paper's sensor-battery saving, §5.1.1).
  std::size_t fp_filters_installed = 0;
  std::size_t fn_filters_installed = 0;

  /// Distribution of |A(t)| sampled after every generated update.
  OnlineStats answer_size;

  // --- Oracle observations (all zero when the oracle is off) ---
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_violations = 0;
  double max_f_plus = 0.0;        ///< worst observed F+(t)
  double max_f_minus = 0.0;       ///< worst observed F−(t)
  std::size_t max_worst_rank = 0; ///< worst observed max-rank over A(t)

  // --- Delivery observations (DESIGN.md §9; all trivial under the
  // default instant model) ---
  /// Violations observed while update payloads were still in transit —
  /// the staleness share of oracle_violations.
  std::uint64_t oracle_violations_in_flight = 0;
  /// Staleness of delivered updates (delivery − crossing time); empty
  /// under instant delivery.
  OnlineStats update_delay;
  /// Run-level network accounting (wire messages, coalescing, drops).
  NetStats net;

  /// The dispatch policy the engine actually executed (after the
  /// ASF_DISPATCH resolution) and its path accounting (DESIGN.md §10).
  /// Purely performance telemetry: the results above are byte-identical
  /// under every policy.
  DispatchPolicy dispatch_policy = DispatchPolicy::kScan;
  DispatchStats dispatch;

  /// Host wall-clock seconds consumed by the run.
  double wall_seconds = 0.0;

  /// Out-of-core spill accounting (DESIGN.md §13); all zero when
  /// config.spill is off. Telemetry only — results are byte-identical
  /// with and without spilling.
  SpillTelemetry spill;

  /// The paper's metric.
  std::uint64_t MaintenanceMessages() const {
    return messages.MaintenanceTotal();
  }

  /// One-line summary for harness logs.
  std::string ToString() const;
};

}  // namespace asf

#endif  // ASF_ENGINE_RUN_RESULT_H_
