#include "engine/multi_system.h"

#include <cmath>
#include <unordered_set>

#include "engine/protocol_factory.h"

namespace asf {

Status MultiQueryConfig::Validate() const {
  ASF_RETURN_IF_ERROR(RunOptions::Validate());
  if (queries.empty()) {
    return Status::InvalidArgument("multi-query run needs >= 1 query");
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
    ASF_RETURN_IF_ERROR(ValidateDeployment(dep, source.NumStreams()));
  }
  return Status::OK();
}

std::uint64_t MultiQueryResult::LogicalUpdates() const {
  std::uint64_t total = 0;
  for (const QueryRunStats& q : queries) total += q.updates_reported;
  return total;
}

std::uint64_t MultiQueryResult::PhysicalMaintenanceTotal() const {
  // Non-update traffic (probes, deploys, responses) is per-query physical;
  // update messages are shared.
  std::uint64_t total = physical_updates;
  for (const QueryRunStats& q : queries) {
    total += q.messages.MaintenanceTotal() -
             q.messages.count(MessagePhase::kMaintenance,
                              MessageType::kValueUpdate);
  }
  return total;
}

std::uint64_t MultiQueryResult::LogicalMaintenanceTotal() const {
  std::uint64_t total = 0;
  for (const QueryRunStats& q : queries) total += q.messages.MaintenanceTotal();
  return total;
}

Result<MultiQueryResult> RunMultiQuerySystem(const MultiQueryConfig& config) {
  ASF_RETURN_IF_ERROR(config.Validate());

  SimulationCore core(config);
  for (const QueryDeployment& dep : config.queries) core.AddQuery(dep);
  core.Run();

  MultiQueryResult result;
  result.queries.reserve(core.num_queries());
  for (std::size_t i = 0; i < core.num_queries(); ++i) {
    result.queries.push_back(core.query_stats(i));
  }
  result.updates_generated = core.updates_generated();
  result.physical_updates = core.physical_updates();
  result.peak_live_queries = core.peak_live_queries();
  result.net = core.net_stats();
  result.dispatch_policy = core.dispatch_policy();
  result.dispatch = core.dispatch_stats();
  result.wall_seconds = core.wall_seconds();
  // Snapshot after collecting the records so the telemetry includes the
  // faults the loop above just triggered.
  result.spill = core.spill_telemetry();
  return result;
}

}  // namespace asf
