#include "engine/multi_system.h"

#include <cmath>
#include <unordered_set>

#include "engine/protocol_factory.h"

namespace asf {

Status MultiQueryConfig::Validate() const {
  ASF_RETURN_IF_ERROR(source.Validate());
  if (queries.empty()) {
    return Status::InvalidArgument("multi-query run needs >= 1 query");
  }
  if (std::isnan(duration) || std::isnan(query_start)) {
    return Status::InvalidArgument("duration/query_start must not be NaN");
  }
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  if (query_start < 0 || query_start >= duration) {
    return Status::InvalidArgument("query_start must lie in [0, duration)");
  }
  std::unordered_set<std::string> names;
  for (const QueryDeployment& dep : queries) {
    if (dep.name.empty()) {
      return Status::InvalidArgument("every query needs a non-empty name");
    }
    if (!names.insert(dep.name).second) {
      return Status::InvalidArgument("duplicate query name: " + dep.name);
    }
    // Lifecycle window: an explicit start must lie inside the run, and a
    // finite end must leave the query a non-empty live window (end at or
    // beyond the horizon just means "never retires"). NaN times would
    // sail through ordinary comparisons and abort later inside the
    // engine's CHECKs, so reject them here.
    if (std::isnan(dep.start) || std::isnan(dep.end)) {
      return Status::InvalidArgument("query '" + dep.name +
                                     "' has a NaN lifecycle time");
    }
    const SimTime resolved_start = dep.start < 0 ? query_start : dep.start;
    if (dep.start >= duration) {
      return Status::InvalidArgument("query '" + dep.name +
                                     "' starts at/after the horizon");
    }
    if (dep.end != kNeverRetire && dep.end <= resolved_start) {
      return Status::InvalidArgument("query '" + dep.name +
                                     "' must end after it starts");
    }
    ASF_RETURN_IF_ERROR(ValidateDeployment(dep.query, dep.protocol,
                                           dep.fraction,
                                           source.NumStreams()));
  }
  ASF_RETURN_IF_ERROR(net.Validate());
  ASF_RETURN_IF_ERROR(spill.Validate());
  return Status::OK();
}

std::uint64_t MultiQueryResult::LogicalUpdates() const {
  std::uint64_t total = 0;
  for (const PerQuery& q : queries) total += q.updates_reported;
  return total;
}

std::uint64_t MultiQueryResult::PhysicalMaintenanceTotal() const {
  // Non-update traffic (probes, deploys, responses) is per-query physical;
  // update messages are shared.
  std::uint64_t total = physical_updates;
  for (const PerQuery& q : queries) {
    total += q.messages.MaintenanceTotal() -
             q.messages.count(MessagePhase::kMaintenance,
                              MessageType::kValueUpdate);
  }
  return total;
}

std::uint64_t MultiQueryResult::LogicalMaintenanceTotal() const {
  std::uint64_t total = 0;
  for (const PerQuery& q : queries) total += q.messages.MaintenanceTotal();
  return total;
}

Result<MultiQueryResult> RunMultiQuerySystem(const MultiQueryConfig& config) {
  ASF_RETURN_IF_ERROR(config.Validate());

  SimulationCore::Options options;
  options.source = config.source;
  options.duration = config.duration;
  options.query_start = config.query_start;
  options.seed = config.seed;
  options.oracle = config.oracle;
  options.net = config.net;
  options.dispatch = config.dispatch;
  options.spill = config.spill;
  options.obs = config.obs;
  SimulationCore core(options);
  for (const QueryDeployment& dep : config.queries) core.AddQuery(dep);
  core.Run();

  MultiQueryResult result;
  result.queries.resize(config.queries.size());
  for (std::size_t i = 0; i < config.queries.size(); ++i) {
    const QueryRunStats& stats = core.query_stats(i);
    MultiQueryResult::PerQuery& out = result.queries[i];
    out.name = stats.name;
    out.messages = stats.messages;
    out.updates_reported = stats.updates_reported;
    out.reinits = stats.reinits;
    out.answer_size = stats.answer_size;
    out.oracle_checks = stats.oracle_checks;
    out.oracle_violations = stats.oracle_violations;
    out.max_f_plus = stats.max_f_plus;
    out.max_f_minus = stats.max_f_minus;
    out.max_worst_rank = stats.max_worst_rank;
    out.oracle_violations_in_flight = stats.oracle_violations_in_flight;
    out.update_delay = stats.update_delay;
    out.deployed_at = stats.deployed_at;
    out.retired_at = stats.retired_at;
  }
  result.updates_generated = core.updates_generated();
  result.physical_updates = core.physical_updates();
  result.peak_live_queries = core.peak_live_queries();
  result.net = core.net_stats();
  result.dispatch_policy = core.dispatch_policy();
  result.dispatch = core.dispatch_stats();
  result.wall_seconds = core.wall_seconds();
  // Snapshot after flattening so the telemetry includes the faults the
  // per-query loop above just triggered.
  result.spill = core.spill_telemetry();
  return result;
}

}  // namespace asf
