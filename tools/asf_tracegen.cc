/// asf_tracegen — generate a synthetic wide-area TCP trace (the LBL
/// substitute, DESIGN.md §3) and write it as a trace CSV consumable by
/// `asf_run --replay=...` and by TraceStreams.
///
/// Examples:
///   asf_tracegen --out=tcp.csv
///   asf_tracegen --out=tcp.csv --subnets=800 --connections=606497
///                --duration=43200 --zipf=1.1 --seed=3
///   asf_tracegen --out=tcp.csv --inspect     # also print summary stats

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "metrics/table.h"
#include "trace/tcp_synth.h"
#include "trace/trace_io.h"

namespace asf {
namespace {

constexpr const char* kHelp = R"(asf_tracegen -- synthesize a TCP-like trace CSV

  --out=FILE            output path (required)
  --subnets=N           subnet streams               [800]
  --connections=N       total connection records     [100000]
  --duration=T          trace duration in time units [10000]
  --zipf=S              subnet activity skew         [1.0]
  --bytes-mu=M          lognormal mu of bytes        [ln 500]
  --bytes-sigma=S       within-subnet log-stddev     [0.45]
  --subnet-sigma=S      across-subnet log-stddev     [1.4]
  --seed=N              seed                         [7]
  --inspect             print per-trace summary statistics
)";

/// Every flag kHelp lists; anything else is rejected, so a typo such as
/// --subnet fails instead of generating with the default.
const std::vector<std::string> kKnownFlags = {
    "help", "out", "subnets", "connections", "duration", "zipf",
    "bytes-mu", "bytes-sigma", "subnet-sigma", "seed", "inspect",
};

Status RunFromFlags(const Flags& flags) {
  if (!flags.Has("out")) {
    return Status::InvalidArgument("--out=FILE is required");
  }
  TcpSynthConfig config;
  ASF_ASSIGN_OR_RETURN(const std::int64_t subnets,
                       flags.GetInt("subnets", 800));
  ASF_ASSIGN_OR_RETURN(const std::int64_t connections,
                       flags.GetInt("connections", 100000));
  ASF_ASSIGN_OR_RETURN(config.duration, flags.GetDouble("duration", 10000));
  ASF_ASSIGN_OR_RETURN(config.zipf_s, flags.GetDouble("zipf", 1.0));
  ASF_ASSIGN_OR_RETURN(config.bytes_log_mu,
                       flags.GetDouble("bytes-mu", config.bytes_log_mu));
  ASF_ASSIGN_OR_RETURN(config.bytes_log_sigma,
                       flags.GetDouble("bytes-sigma", config.bytes_log_sigma));
  ASF_ASSIGN_OR_RETURN(config.subnet_sigma,
                       flags.GetDouble("subnet-sigma", config.subnet_sigma));
  ASF_ASSIGN_OR_RETURN(const std::int64_t seed, flags.GetInt("seed", 7));
  if (subnets <= 0 || connections < 0) {
    return Status::InvalidArgument("--subnets/--connections must be positive");
  }
  config.num_subnets = static_cast<std::size_t>(subnets);
  config.total_connections = static_cast<std::uint64_t>(connections);
  config.seed = static_cast<std::uint64_t>(seed);

  ASF_ASSIGN_OR_RETURN(const TraceData trace, GenerateTcpTrace(config));
  const std::string out = flags.GetString("out");
  ASF_RETURN_IF_ERROR(WriteTraceCsv(trace, out));
  std::printf("wrote %zu records over %zu streams to %s\n",
              trace.records().size(), trace.num_streams(), out.c_str());

  ASF_ASSIGN_OR_RETURN(const bool inspect, flags.GetBool("inspect", false));
  if (inspect) {
    OnlineStats bytes;
    std::vector<std::uint64_t> per_subnet(trace.num_streams(), 0);
    for (const TraceRecord& rec : trace.records()) {
      bytes.Add(rec.value);
      ++per_subnet[rec.stream];
    }
    std::sort(per_subnet.rbegin(), per_subnet.rend());
    TextTable table({"stat", "value"});
    table.AddRow({"bytes", bytes.ToString()});
    table.AddRow({"busiest subnet records",
                  Fmt("%llu", (unsigned long long)per_subnet.front())});
    table.AddRow({"median subnet records",
                  Fmt("%llu", (unsigned long long)
                                  per_subnet[per_subnet.size() / 2])});
    table.AddRow({"duration", Fmt("%g", trace.Duration())});
    std::printf("%s", table.ToString().c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) {
  return asf::RunTool(argc, argv, asf::kKnownFlags, asf::kHelp,
                      asf::RunFromFlags);
}
