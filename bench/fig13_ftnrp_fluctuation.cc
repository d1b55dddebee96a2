/// Figure 13 reproduction — "FT-NRP: Data fluctuation" (§6.2).
///
/// Workload: the synthetic random-walk model with the step deviation σ
/// swept over {20, 40, 60, 80, 100}; range query [400, 600]; tolerance
/// ε+ = ε− swept from 0 to 0.5. The paper: "As σ increases, FT-NRP
/// generates more messages. When a data value changes abruptly, it has a
/// higher chance of violating the filter bound constraint."

#include "bench_common.h"

namespace asf {
namespace {

void Run() {
  bench::PrintBanner(
      "Figure 13: FT-NRP, messages vs tolerance for varying sigma",
      "larger sigma -> more crossings -> more messages at every tolerance; "
      "each curve decreases with tolerance",
      "columns increase top-to-bottom (sigma), rows decrease "
      "left-to-right (eps)");

  const std::vector<double> eps{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<std::string> header{"sigma"};
  for (double e : eps) header.push_back(Fmt("eps=%.1f", e));
  TextTable table(header);

  const std::vector<double> sigmas{20.0, 40.0, 60.0, 80.0, 100.0};
  std::vector<SystemConfig> configs;
  for (double sigma : sigmas) {
    SystemConfig base;
    RandomWalkConfig walk;
    walk.num_streams = 5000;
    walk.sigma = sigma;
    walk.seed = 19;
    base.source = SourceSpec::Walk(walk);
    base.query = QuerySpec::Range(400, 600);
    base.protocol = ProtocolKind::kFtNrp;
    base.duration = 1000 * bench::Scale();
    for (double e : eps) {
      SystemConfig config = base;
      config.fraction = {e, e};
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  for (std::size_t si = 0; si < sigmas.size(); ++si) {
    std::vector<std::string> row{Fmt("%.0f", sigmas[si])};
    for (std::size_t ei = 0; ei < eps.size(); ++ei) {
      row.push_back(bench::Msgs(
          results[si * eps.size() + ei].MaintenanceMessages()));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "fig13");
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return 0;
}
