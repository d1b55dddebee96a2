/// Figure 11 reproduction — "FT-NRP: Scalability" (§6.1).
///
/// Workload: synthetic TCP traces with the stream population swept from
/// 200 to 2000 subnets at constant per-subnet intensity; range query
/// [400, 600]. One curve per tolerance ε+ = ε− ∈ {0, 0.2, 0.3, 0.4, 0.5}.
/// The paper: "the protocol in general scales well, and for a larger
/// number of streams, the performance gains more by using higher
/// tolerance values."

#include "bench_common.h"
#include "trace/tcp_synth.h"

namespace asf {
namespace {

void Run() {
  bench::PrintBanner(
      "Figure 11: FT-NRP scalability, messages vs number of streams",
      "cost grows with the population; higher tolerance flattens the "
      "growth, with the gap widening as streams are added",
      "columns increase top-to-bottom; rows decrease left-to-right; the "
      "eps=0 minus eps=0.5 gap grows with n");

  const std::vector<double> eps{0.0, 0.2, 0.3, 0.4, 0.5};
  std::vector<std::string> header{"streams"};
  for (double e : eps) header.push_back(Fmt("eps=%.1f", e));
  TextTable table(header);

  // Generate every population's trace first (they must outlive the batch),
  // then fan the whole population × tolerance grid across the worker pool.
  std::vector<std::size_t> populations;
  for (std::size_t n = 200; n <= 2000; n += 200) populations.push_back(n);

  constexpr SimTime kDuration = 5000;
  std::vector<TraceData> traces;
  traces.reserve(populations.size());
  for (std::size_t n : populations) {
    TcpSynthConfig synth;
    synth.num_subnets = n;
    // Constant per-subnet intensity: 75 connections per subnet.
    synth.total_connections =
        static_cast<std::uint64_t>(75.0 * n * bench::Scale());
    synth.duration = kDuration;
    synth.seed = 13;
    auto trace = GenerateTcpTrace(synth);
    ASF_CHECK(trace.ok());
    traces.push_back(std::move(trace).value());
  }

  std::vector<SystemConfig> configs;
  for (const TraceData& trace : traces) {
    for (double e : eps) {
      SystemConfig config;
      config.source = SourceSpec::Trace(&trace);
      config.query = QuerySpec::Range(400, 600);
      config.protocol = ProtocolKind::kFtNrp;
      config.fraction = {e, e};
      config.duration = kDuration;
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  for (std::size_t ni = 0; ni < populations.size(); ++ni) {
    std::vector<std::string> row{Fmt("%zu", populations[ni])};
    for (std::size_t ei = 0; ei < eps.size(); ++ei) {
      row.push_back(bench::Msgs(
          results[ni * eps.size() + ei].MaintenanceMessages()));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "fig11");
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return 0;
}
