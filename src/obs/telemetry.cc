#include "obs/telemetry.h"

#include <cstdio>

#include "metrics/table.h"

namespace asf {
namespace obs {

void TelemetryBlock::AppendRows(TextTable* table) const {
  for (const auto& [label, cell] : rows_) table->AddRow({label, cell});
}

void TelemetryBlock::PrintLines() const {
  for (const auto& [label, cell] : rows_) {
    std::printf("%s: %s\n", label.c_str(), cell.c_str());
  }
}

void TelemetryBlock::AppendMetrics(
    std::vector<std::pair<std::string, double>>* metrics) const {
  for (const auto& [key, value] : metrics_) metrics->emplace_back(key, value);
}

TelemetryBlock SpillTelemetryBlock(const SpillTelemetry& spill) {
  TelemetryBlock block;
  if (!spill.enabled) return block;
  block.Row("spill pool", Fmt("%zu pages (%s)", spill.buffer_pages,
                              spill.replacement.c_str()));
  block.Row("spill records out / back",
            Fmt("%llu / %llu", (unsigned long long)spill.records_spilled,
                (unsigned long long)spill.records_faulted));
  block.Row("spill bytes out / back",
            Fmt("%llu / %llu", (unsigned long long)spill.spilled_bytes,
                (unsigned long long)spill.faulted_bytes));
  block.Row("spill pool hit rate",
            Fmt("%.3f (%llu hits, %llu misses)", spill.PoolHitRate(),
                (unsigned long long)spill.pool_hits,
                (unsigned long long)spill.pool_misses));
  block.Row("spill evictions / write-backs",
            Fmt("%llu / %llu", (unsigned long long)spill.pool_evictions,
                (unsigned long long)spill.pool_write_backs));
  block.Row("spill resident / file bytes",
            Fmt("%llu / %llu", (unsigned long long)spill.pool_resident_bytes,
                (unsigned long long)spill.file_bytes));

  block.Metric("spill_buffer_pages", static_cast<double>(spill.buffer_pages));
  block.Metric("spill_records", static_cast<double>(spill.records_spilled));
  block.Metric("spill_faults", static_cast<double>(spill.records_faulted));
  block.Metric("spill_bytes", static_cast<double>(spill.spilled_bytes));
  block.Metric("spill_pool_hit_rate", spill.PoolHitRate());
  block.Metric("spill_pool_evictions",
               static_cast<double>(spill.pool_evictions));
  block.Metric("spill_pool_write_backs",
               static_cast<double>(spill.pool_write_backs));
  block.Metric("spill_resident_bytes",
               static_cast<double>(spill.pool_resident_bytes));
  block.Metric("spill_file_bytes", static_cast<double>(spill.file_bytes));
  return block;
}

TelemetryBlock NetTelemetryBlock(const NetConfig& config,
                                 const NetStats& stats,
                                 const QueryRunStats* query) {
  TelemetryBlock block;

  if (query == nullptr) {
    // Churn mode: the coarse totals-table block.
    if (!config.DelaysDelivery()) return block;
    block.Row("net model", config.ToString());
    block.Row("net msgs per flush", Fmt("%.2f", stats.MessagesPerFlush()));
    block.Row("net staleness mean", Fmt("%.3f", stats.delay.mean()));
    block.Row("net dropped (retired)",
              Fmt("%llu", (unsigned long long)stats.dropped_retired));
    block.Metric("net_kind",
                 static_cast<double>(static_cast<int>(config.kind)));
    block.Metric("net_msgs_per_flush", stats.MessagesPerFlush());
    block.Metric("net_staleness_mean", stats.delay.mean());
    block.Metric("net_dropped_retired",
                 static_cast<double>(stats.dropped_retired));
    return block;
  }

  // Single-query mode. Rows only under a delaying model: an instant net
  // has no delivery cost to report.
  if (config.DelaysDelivery()) {
    block.Row("net model", config.ToString());
    block.Row("net wire updates",
              Fmt("%llu", (unsigned long long)stats.update_messages));
    block.Row("net msgs per flush", Fmt("%.2f", stats.MessagesPerFlush()));
    block.Row("staleness mean / max",
              Fmt("%.3f / %.3f", query->update_delay.mean(),
                  query->update_delay.max()));
    if (query->oracle_checks > 0) {
      block.Row(
          "violations in flight",
          Fmt("%llu",
              (unsigned long long)query->oracle_violations_in_flight));
    }
    block.Row("in flight at horizon",
              Fmt("%llu", (unsigned long long)stats.in_flight_at_end));
    if (config.HasFaults()) {
      block.Row("crossings lost / partitioned",
                Fmt("%llu / %llu", (unsigned long long)stats.dropped_loss,
                    (unsigned long long)stats.dropped_partition));
      block.Row("stale payloads suppressed",
                Fmt("%llu", (unsigned long long)stats.suppressed_stale));
      block.Row("deploy retx / acks / unacked",
                Fmt("%llu / %llu / %llu",
                    (unsigned long long)stats.deploy_retransmits,
                    (unsigned long long)stats.deploy_acks,
                    (unsigned long long)stats.deploy_unacked_at_end));
      block.Row("probe retx / failovers",
                Fmt("%llu / %llu",
                    (unsigned long long)stats.probe_retransmits,
                    (unsigned long long)stats.probe_failovers));
      block.Row("reconcile exchanges / deploys",
                Fmt("%llu / %llu",
                    (unsigned long long)stats.reconcile_exchanges,
                    (unsigned long long)stats.reconcile_deploys));
    }

    block.Metric("net_kind",
                 static_cast<double>(static_cast<int>(config.kind)));
    block.Metric("net_wire_updates",
                 static_cast<double>(stats.update_messages));
    block.Metric("net_msgs_per_flush", stats.MessagesPerFlush());
    block.Metric("staleness_mean", query->update_delay.mean());
    block.Metric("staleness_max", query->update_delay.max());
    block.Metric("oracle_violations_in_flight",
                 static_cast<double>(query->oracle_violations_in_flight));
    block.Metric("net_in_flight_at_end",
                 static_cast<double>(stats.in_flight_at_end));
  }
  // Fault metrics gate on HasFaults alone — NOT nested under
  // DelaysDelivery — preserving the historical bench-json schema (a
  // faults-only spec over an instant base still reports them).
  if (config.HasFaults()) {
    block.Metric("net_dropped_loss", static_cast<double>(stats.dropped_loss));
    block.Metric("net_dropped_partition",
                 static_cast<double>(stats.dropped_partition));
    block.Metric("net_suppressed_stale",
                 static_cast<double>(stats.suppressed_stale));
    block.Metric("net_deploy_retransmits",
                 static_cast<double>(stats.deploy_retransmits));
    block.Metric("net_deploy_acks", static_cast<double>(stats.deploy_acks));
    block.Metric("net_deploy_unacked_at_end",
                 static_cast<double>(stats.deploy_unacked_at_end));
    block.Metric("net_probe_retransmits",
                 static_cast<double>(stats.probe_retransmits));
    block.Metric("net_probe_failovers",
                 static_cast<double>(stats.probe_failovers));
    block.Metric("net_reconcile_exchanges",
                 static_cast<double>(stats.reconcile_exchanges));
    block.Metric("net_reconcile_deploys",
                 static_cast<double>(stats.reconcile_deploys));
  }
  return block;
}

}  // namespace obs
}  // namespace asf
