#include "engine/system.h"

#include "engine/sim_core.h"

namespace asf {

Result<RunResult> RunSystem(const SystemConfig& config) {
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

  QueryDeployment deployment;
  deployment.query = config.query;
  deployment.protocol = config.protocol;
  deployment.rank_r = config.rank_r;
  deployment.fraction = config.fraction;
  deployment.ft = config.ft;
  deployment.broadcast = config.broadcast_counts_as_one
                             ? BroadcastCostModel::kSingleMessage
                             : BroadcastCostModel::kPerRecipient;
  SimulationCore core(options);
  core.AddQuery(deployment);
  core.Run();

  const QueryRunStats& stats = core.query_stats(0);
  RunResult result;
  result.messages = stats.messages;
  result.updates_generated = core.updates_generated();
  result.updates_reported = stats.updates_reported;
  result.reinits = stats.reinits;
  result.fp_filters_installed = stats.fp_filters_installed;
  result.fn_filters_installed = stats.fn_filters_installed;
  result.answer_size = stats.answer_size;
  result.oracle_checks = stats.oracle_checks;
  result.oracle_violations = stats.oracle_violations;
  result.max_f_plus = stats.max_f_plus;
  result.max_f_minus = stats.max_f_minus;
  result.max_worst_rank = stats.max_worst_rank;
  result.oracle_violations_in_flight = stats.oracle_violations_in_flight;
  result.update_delay = stats.update_delay;
  result.net = core.net_stats();
  result.dispatch_policy = core.dispatch_policy();
  result.dispatch = core.dispatch_stats();
  result.wall_seconds = core.wall_seconds();
  result.spill = core.spill_telemetry();
  return result;
}

}  // namespace asf
