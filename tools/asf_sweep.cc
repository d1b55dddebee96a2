/// asf_sweep — sweep one tolerance parameter of a protocol and emit the
/// (parameter, maintenance messages) series as a table and optional CSV,
/// for plotting paper-style curves from arbitrary configurations.
///
/// Examples:
///   asf_sweep --protocol=ft-nrp --param=eps --values=0,0.1,0.2,0.3
///   asf_sweep --protocol=rtp --query=topk --k=20 --param=r
///             --values=0,2,4,8,16 --csv=rtp.csv

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "engine/sweep_runner.h"
#include "engine/system.h"
#include "metrics/bench_json.h"
#include "metrics/table.h"
#include "run_flags.h"

namespace asf {
namespace {

constexpr const char* kHelp = R"(asf_sweep -- sweep a tolerance parameter

  --param=eps|eps-plus|eps-minus|r|sigma|streams    swept parameter [eps]
  --values=V1,V2,...                                sweep points (required)
  --csv=FILE                                        also write CSV
  --bench-json=FILE         write per-point wall time / message totals JSON
  --seeds=N                 average over N seeds    [1]
                            (at most 65536 runs in all)
  --jobs=N                  parallel workers (0 = all hardware threads) [0]
plus the workload/query/protocol flags of asf_run:
  --protocol, --query, --range, --k, --q, --streams, --sigma,
  --duration, --seed, --heuristic

All (value, seed) runs execute through the thread-parallel sweep executor;
results are aggregated in submission order, so the output is identical for
any --jobs value.
)";

/// Upper bound on a sweep's (value, seed) runs: 2^16 runs is already days
/// of simulation, and the grid is sized before any of them starts.
constexpr std::size_t kMaxSweepRuns = std::size_t{1} << 16;

Result<std::vector<double>> ParseValues(const std::string& csv) {
  std::vector<double> values;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    ASF_ASSIGN_OR_RETURN(const double value, ParseDouble(item, "--values"));
    values.push_back(value);
  }
  return values;
}

/// Every flag kHelp lists; anything else is rejected, so a typo such as
/// --protcol fails instead of sweeping the default protocol.
const std::vector<std::string> kKnownFlags = {
    "help", "param", "values", "csv", "bench-json", "seeds", "jobs",
    "protocol", "query", "range", "k", "q", "streams", "sigma",
    "duration", "seed", "heuristic",
};

Result<SystemConfig> BaseConfig(const Flags& flags) {
  SystemConfig config;
  ASF_ASSIGN_OR_RETURN(const RandomWalkConfig walk, ParseWalk(flags));
  config.source = SourceSpec::Walk(walk);
  config.seed = walk.seed;
  ASF_ASSIGN_OR_RETURN(config.duration, flags.GetDouble("duration", 1000));
  ASF_ASSIGN_OR_RETURN(config.query, ParseQuery(flags));
  ASF_ASSIGN_OR_RETURN(config.protocol,
                       ParseProtocol(flags.GetString("protocol", "ft-nrp")));
  ASF_ASSIGN_OR_RETURN(config.ft, ParseFtOptions(flags));
  return config;
}

Status ApplyParam(SystemConfig* config, const std::string& param, double v) {
  if (param == "eps") {
    config->fraction = {v, v};
  } else if (param == "eps-plus") {
    config->fraction.eps_plus = v;
  } else if (param == "eps-minus") {
    config->fraction.eps_minus = v;
  } else if (param == "r" || param == "streams") {
    // Counts. A negative or fractional value must not reach the
    // std::size_t conversion, which would wrap or truncate it.
    if (!(v >= 0 && v == std::floor(v) && v < 1e15)) {
      return Status::InvalidArgument("--param=" + param +
                                     " takes whole numbers >= 0");
    }
    if (param == "r") {
      config->rank_r = static_cast<std::size_t>(v);
    } else {
      config->source.walk.num_streams = static_cast<std::size_t>(v);
    }
  } else if (param == "sigma") {
    config->source.walk.sigma = v;
  } else {
    return Status::InvalidArgument("unknown --param: " + param);
  }
  return Status::OK();
}

Status RunFromFlags(const Flags& flags) {
  if (!flags.Has("values")) {
    return Status::InvalidArgument("--values=V1,V2,... is required");
  }
  ASF_ASSIGN_OR_RETURN(const std::vector<double> values,
                       ParseValues(flags.GetString("values")));
  if (values.empty()) {
    return Status::InvalidArgument("--values parsed to an empty list");
  }
  const std::string param = flags.GetString("param", "eps");
  ASF_ASSIGN_OR_RETURN(const std::int64_t seeds, flags.GetInt("seeds", 1));
  if (seeds <= 0) return Status::InvalidArgument("--seeds must be positive");
  if (static_cast<std::uint64_t>(seeds) > kMaxSweepRuns / values.size()) {
    return Status::InvalidArgument(
        "--seeds times the number of --values must be at most " +
        std::to_string(kMaxSweepRuns));
  }
  ASF_ASSIGN_OR_RETURN(const std::int64_t jobs, flags.GetInt("jobs", 0));
  if (jobs < 0) return Status::InvalidArgument("--jobs must be >= 0");

  // Build the whole (value, seed) grid up front, then fan it across the
  // worker pool; each task carries its own deterministic seeds, and the
  // executor returns results in submission order.
  std::vector<SystemConfig> configs;
  configs.reserve(values.size() * static_cast<std::size_t>(seeds));
  for (double v : values) {
    ASF_ASSIGN_OR_RETURN(SystemConfig base, BaseConfig(flags));
    ASF_RETURN_IF_ERROR(ApplyParam(&base, param, v));
    for (SystemConfig& config :
         ExpandSeeds(base, static_cast<std::size_t>(seeds))) {
      configs.push_back(std::move(config));
    }
  }
  SweepOptions sweep;
  sweep.num_threads = static_cast<std::size_t>(jobs);
  ASF_ASSIGN_OR_RETURN(const std::vector<RunResult> results,
                       RunSweepAll(configs, sweep));

  TextTable table({param, "maint_messages", "reported", "reinits"});
  std::vector<std::pair<std::string, double>> bench_metrics;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t messages = 0;
    std::uint64_t reported = 0;
    std::uint64_t reinits = 0;
    double wall = 0.0;
    for (std::int64_t s = 0; s < seeds; ++s) {
      const RunResult& result =
          results[i * static_cast<std::size_t>(seeds) +
                  static_cast<std::size_t>(s)];
      messages += result.MaintenanceMessages();
      reported += result.updates_reported;
      reinits += result.reinits;
      wall += result.wall_seconds;
    }
    table.AddRow({Fmt("%g", values[i]),
                  Fmt("%llu", (unsigned long long)(messages / seeds)),
                  Fmt("%llu", (unsigned long long)(reported / seeds)),
                  Fmt("%llu", (unsigned long long)(reinits / seeds))});
    const std::string prefix = param + "=" + Fmt("%g", values[i]);
    bench_metrics.emplace_back(prefix + "_wall_seconds",
                               wall / static_cast<double>(seeds));
    bench_metrics.emplace_back(
        prefix + "_maint_messages",
        static_cast<double>(messages) / static_cast<double>(seeds));
    bench_metrics.emplace_back(
        prefix + "_updates_reported",
        static_cast<double>(reported) / static_cast<double>(seeds));
  }
  std::printf("%s", table.ToString().c_str());
  if (flags.Has("csv")) {
    ASF_RETURN_IF_ERROR(table.WriteCsv(flags.GetString("csv")));
    std::printf("wrote %s\n", flags.GetString("csv").c_str());
  }
  if (flags.Has("bench-json")) {
    metrics::JsonWriter writer("asf_sweep");
    writer.AddMetrics(bench_metrics);
    ASF_RETURN_IF_ERROR(writer.WriteTo(flags.GetString("bench-json")));
    std::printf("wrote %s\n", flags.GetString("bench-json").c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) {
  return asf::RunTool(argc, argv, asf::kKnownFlags, asf::kHelp,
                      asf::RunFromFlags);
}
