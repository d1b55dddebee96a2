#ifndef ASF_OBS_TELEMETRY_H_
#define ASF_OBS_TELEMETRY_H_

#include <string>
#include <utility>
#include <vector>

#include "engine/run_result.h"
#include "engine/spill_config.h"
#include "net/network_model.h"

/// \file
/// The single telemetry formatter: every consumer
/// of SpillTelemetry / NetStats renders through one TelemetryBlock
/// instead of hand-rolled printf blocks per tool. A block carries both
/// presentations of the same facts — human-readable rows and
/// machine-readable (key, value) metrics — so the table, the standalone
/// "spill " lines, and the bench-json metrics can never drift apart.
///
/// Labels, formats and gating (DelaysDelivery / HasFaults / oracle_checks)
/// are asf_run's output format: a run on the default instant net prints
/// no net rows at all.

namespace asf {

class TextTable;

namespace obs {

class TelemetryBlock {
 public:
  void Row(std::string label, std::string cell) {
    rows_.emplace_back(std::move(label), std::move(cell));
  }
  void Metric(std::string key, double value) {
    metrics_.emplace_back(std::move(key), value);
  }

  /// Appends the rows to a summary table.
  void AppendRows(TextTable* table) const;
  /// Prints the rows as standalone "label: cell" lines (the spill
  /// telemetry style — kept out of tables so enabling spill does not
  /// re-align the summary table).
  void PrintLines() const;
  /// Appends the metrics to a bench-json metric vector.
  void AppendMetrics(
      std::vector<std::pair<std::string, double>>* metrics) const;

  const std::vector<std::pair<std::string, std::string>>& rows() const {
    return rows_;
  }
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> rows_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Spill-path telemetry: six "spill ..." rows + nine spill_* metrics.
/// Empty when spilling is disabled.
TelemetryBlock SpillTelemetryBlock(const SpillTelemetry& spill);

/// Delivery telemetry. With `query` non-null this is asf_run's rich
/// single-query block, which adds the query's own staleness
/// (QueryRunStats::update_delay — distinct from NetStats::delay, which
/// samples every payload) and in-flight violations: rows and metrics gated
/// on DelaysDelivery, fault rows additionally on HasFaults, fault
/// *metrics* on HasFaults alone. With `query` null it is the churn-mode
/// block (model, msgs per flush, staleness mean, dropped retired).
TelemetryBlock NetTelemetryBlock(const NetConfig& config,
                                 const NetStats& stats,
                                 const QueryRunStats* query);

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_TELEMETRY_H_
