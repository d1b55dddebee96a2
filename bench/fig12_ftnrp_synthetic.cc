/// Figure 12 reproduction — "FT-NRP: Effect of ε+/ε−" on synthetic data
/// (§6.2).
///
/// Workload: the paper's synthetic model — 5000 streams, initial values
/// U[0, 1000], exponential inter-arrival (mean 20), normal steps
/// N(0, σ=20); range query [400, 600]. Same expected surface as Figure 10
/// but on the random-walk workload, where crossings are driven by slow
/// drift rather than i.i.d. connection sizes.

#include "bench_common.h"

namespace asf {
namespace {

void Run() {
  bench::PrintBanner(
      "Figure 12: FT-NRP on synthetic data, messages vs (eps+, eps-)",
      "messages decrease as the tolerances grow (34K..46K band in the "
      "paper); FT-NRP always beats the zero-tolerance corner",
      "every row and column weakly decreasing");

  SystemConfig base;
  RandomWalkConfig walk;
  walk.num_streams = 5000;
  walk.sigma = 20;
  walk.mean_interarrival = 20;
  walk.seed = 17;
  base.source = SourceSpec::Walk(walk);
  base.query = QuerySpec::Range(400, 600);
  base.protocol = ProtocolKind::kFtNrp;
  base.duration = 2000 * bench::Scale();
  base.oracle.sample_interval = base.duration / 100;

  const std::vector<double> eps{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<std::string> header{"eps+ \\ eps-"};
  for (double em : eps) header.push_back(Fmt("%.1f", em));
  TextTable table(header);

  std::vector<SystemConfig> configs;
  for (double ep : eps) {
    for (double em : eps) {
      SystemConfig config = base;
      config.fraction = {ep, em};
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  std::uint64_t violations = 0;
  std::uint64_t checks = 0;
  for (std::size_t pi = 0; pi < eps.size(); ++pi) {
    std::vector<std::string> row{Fmt("%.1f", eps[pi])};
    for (std::size_t mi = 0; mi < eps.size(); ++mi) {
      const RunResult& result = results[pi * eps.size() + mi];
      row.push_back(bench::Msgs(result.MaintenanceMessages()));
      violations += result.oracle_violations;
      checks += result.oracle_checks;
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "fig12");
  std::printf("oracle violations: %s sampled checks\n",
              bench::OracleCell(violations, checks).c_str());
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return asf::bench::ExitStatus();
}
