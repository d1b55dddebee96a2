#include "obs/report.h"

#include <type_traits>

#include "engine/record_fields.h"
#include "metrics/table.h"

namespace asf {
namespace obs {
namespace {

std::string Count(std::uint64_t n) {
  return Fmt("%llu", static_cast<unsigned long long>(n));
}

std::string Pair(std::uint64_t a, std::uint64_t b) {
  return Count(a) + " / " + Count(b);
}

}  // namespace

std::vector<std::pair<std::string, double>> RunMetrics(
    const MultiQueryResult& result) {
  std::vector<std::pair<std::string, double>> metrics;
  const auto add = [&metrics](const FieldName& name, const auto& value) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(value)>>) {
      metrics.emplace_back(name.str(), static_cast<double>(value));
    }
  };
  const FieldName root;
  add(root.Child("queries"), result.queries.size());
  for (std::size_t i = 0; i < result.queries.size(); ++i) {
    const std::string prefix = "queries[" + std::to_string(i) + "]";
    VisitFields(FieldName(prefix), result.queries[i], add);
  }
  VisitRunTotals(root, result, add);
  VisitTelemetry(root, result, add);
  return metrics;
}

std::string RunReport(const MultiQueryResult& result, const NetConfig& net) {
  const bool delays = net.DelaysDelivery();
  std::vector<std::string> header = {
      "query", "deployed", "retired", "maint_messages", "init_messages",
      "reported", "reinits", "answer_mean", "oracle", "max F+ / F-"};
  if (delays) {
    header.push_back("staleness mean / max");
    header.push_back("violations in flight");
  }
  TextTable per_query(header);
  for (const QueryRunStats& q : result.queries) {
    std::vector<std::string> row = {
        q.name, Fmt("%g", q.deployed_at), Fmt("%g", q.retired_at),
        Count(q.messages.MaintenanceTotal()), Count(q.messages.InitTotal()),
        Count(q.updates_reported), Count(q.reinits),
        Fmt("%.2f", q.answer_size.mean()),
        Count(q.oracle_violations) + "/" + Count(q.oracle_checks),
        Fmt("%.3f / %.3f", q.max_f_plus, q.max_f_minus)};
    if (delays) {
      row.push_back(Fmt("%.3f / %.3f", q.update_delay.mean(),
                        q.update_delay.max()));
      row.push_back(Count(q.oracle_violations_in_flight));
    }
    per_query.AddRow(std::move(row));
  }

  TextTable run({"metric", "value"});
  const auto add = [&run](std::string label, std::string value) {
    run.AddRow({std::move(label), std::move(value)});
  };
  add("queries deployed", Count(result.queries.size()));
  add("peak live queries", Count(result.peak_live_queries));
  add("updates generated", Count(result.updates_generated));
  add("logical maintenance", Count(result.LogicalMaintenanceTotal()));
  for (int t = 0; t < kNumMessageTypes; ++t) {
    const auto type = static_cast<MessageType>(t);
    std::uint64_t sent = 0;
    for (const QueryRunStats& q : result.queries) {
      sent += q.messages.count(MessagePhase::kMaintenance, type);
    }
    if (sent > 0) {
      add("  maint " + std::string(MessageTypeName(type)), Count(sent));
    }
  }
  add("physical maintenance", Count(result.PhysicalMaintenanceTotal()));
  // Signed: a wire message whose payloads were all suppressed as stale
  // (reorder) or dropped for a retired query is physical but not
  // logical, so the saving can be negative.
  add("sharing saving",
      Fmt("%lld", static_cast<long long>(result.LogicalUpdates()) -
                      static_cast<long long>(result.physical_updates)));

  const NetStats& n = result.net;
  if (delays) {  // an instant net has no delivery cost to report
    add("net model", net.ToString());
    add("net wire updates", Count(n.update_messages));
    add("net msgs per flush", Fmt("%.2f", n.MessagesPerFlush()));
    add("net staleness mean / max",
        Fmt("%.3f / %.3f", n.delay.mean(), n.delay.max()));
    add("net dropped (retired)", Count(n.dropped_retired));
    add("in flight at horizon", Count(n.in_flight_at_end));
    if (net.HasFaults()) {
      add("crossings lost / partitioned",
          Pair(n.dropped_loss, n.dropped_partition));
      add("stale payloads suppressed", Count(n.suppressed_stale));
      add("deploy retx / acks / unacked",
          Pair(n.deploy_retransmits, n.deploy_acks) + " / " +
              Count(n.deploy_unacked_at_end));
      add("probe retx / failovers",
          Pair(n.probe_retransmits, n.probe_failovers));
      add("reconcile exchanges / deploys",
          Pair(n.reconcile_exchanges, n.reconcile_deploys));
    }
  }

  const SpillTelemetry& s = result.spill;
  if (s.enabled) {
    add("spill pool",
        Fmt("%zu pages (%s)", s.buffer_pages, s.replacement.c_str()));
    add("spill records out / back",
        Pair(s.records_spilled, s.records_faulted));
    add("spill bytes out / back", Pair(s.spilled_bytes, s.faulted_bytes));
    add("spill pool hit rate",
        Fmt("%.3f (%s hits, %s misses)", s.PoolHitRate(),
            Count(s.pool_hits).c_str(), Count(s.pool_misses).c_str()));
    add("spill evictions / write-backs",
        Pair(s.pool_evictions, s.pool_write_backs));
    add("spill resident / file bytes",
        Pair(s.pool_resident_bytes, s.file_bytes));
  }
  add("wall seconds", Fmt("%.3f", result.wall_seconds));
  return per_query.ToString() + "\n" + run.ToString();
}

}  // namespace obs
}  // namespace asf
