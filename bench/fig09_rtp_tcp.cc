/// Figure 9 reproduction — "RTP: Effect of r" (paper §6.1).
///
/// Workload: synthetic wide-area TCP trace (LBL substitute, DESIGN.md §3),
/// 800 subnet streams; a continuous top-k query reports the subnets with
/// the k highest "bytes sent" values. One curve per k ∈ {15, 20, 25, 30},
/// sweeping the rank tolerance r from 0 to 20, plus the no-filter baseline.

#include "bench_common.h"
#include "trace/tcp_synth.h"

namespace asf {
namespace {

void Run() {
  TcpSynthConfig synth;
  synth.num_subnets = 800;
  synth.total_connections =
      static_cast<std::uint64_t>(45000 * bench::Scale());
  synth.duration = 5000;
  synth.seed = 7;
  auto trace = GenerateTcpTrace(synth);
  ASF_CHECK(trace.ok());

  bench::PrintBanner(
      "Figure 9: RTP on TCP data, messages vs rank tolerance r",
      "for each k, messages fall as r grows; at r=0 RTP can exceed the "
      "no-filter baseline (bound recomputed too often)",
      "rows monotone decreasing left-to-right; r=0 column near or above "
      "no-filter for large k");

  SystemConfig base;
  base.source = SourceSpec::Trace(&trace.value());
  base.duration = synth.duration;
  base.oracle.sample_interval = synth.duration / 100;

  // Baseline: no filter at all. The query type does not change its cost.
  // The baseline and the whole k × r grid run as one parallel batch.
  SystemConfig no_filter = base;
  no_filter.query = QuerySpec::TopK(15);
  no_filter.protocol = ProtocolKind::kNoFilter;

  const std::vector<std::size_t> ks{15, 20, 25, 30};
  const std::vector<std::size_t> rs{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20};
  std::vector<SystemConfig> configs{no_filter};
  for (std::size_t k : ks) {
    for (std::size_t r : rs) {
      SystemConfig config = base;
      config.query = QuerySpec::TopK(k);
      config.protocol = ProtocolKind::kRtp;
      config.rank_r = r;
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  const RunResult& baseline = results[0];
  std::printf("no filter: %s messages (= %llu updates)\n\n",
              bench::Msgs(baseline.MaintenanceMessages()).c_str(),
              static_cast<unsigned long long>(baseline.updates_generated));

  std::vector<std::string> header{"k \\ r"};
  for (std::size_t r : rs) header.push_back(Fmt("r=%zu", r));
  header.push_back("oracle_viol");
  TextTable table(header);

  for (std::size_t ki = 0; ki < ks.size(); ++ki) {
    std::vector<std::string> row{Fmt("k=%zu", ks[ki])};
    std::uint64_t violations = 0;
    std::uint64_t checks = 0;
    for (std::size_t ri = 0; ri < rs.size(); ++ri) {
      const RunResult& result = results[1 + ki * rs.size() + ri];
      row.push_back(bench::Msgs(result.MaintenanceMessages()));
      violations += result.oracle_violations;
      checks += result.oracle_checks;
    }
    row.push_back(bench::OracleCell(violations, checks));
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "fig09");
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return asf::bench::ExitStatus();
}
