/// Figure 14 reproduction — "FT-NRP: Selection heuristics" (§6.2).
///
/// Workload: the synthetic random-walk model; range query [400, 600];
/// ε+ = ε− swept from 0 to 0.5. Compares the two silent-filter placement
/// heuristics: random vs boundary-nearest. The paper: "boundary-nearest
/// outperforms random because streams with values close to [l, u] are
/// likely to cross the boundary ... As the amount of tolerance increases,
/// the difference is more pronounced."

#include "bench_common.h"

namespace asf {
namespace {

void Run() {
  bench::PrintBanner(
      "Figure 14: FT-NRP placement heuristics, messages vs tolerance",
      "boundary-nearest beats random selection at every tolerance, and the "
      "gap widens as tolerance grows (more silent filters to place)",
      "'boundary-nearest' row below the 'random' row; the gap column grows "
      "left-to-right");

  const std::vector<double> eps{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

  // Averaged over a few seeds so the random heuristic's variance does not
  // obscure the comparison.
  const std::vector<std::uint64_t> seeds{23, 24, 25};

  std::vector<std::string> header{"heuristic"};
  for (double e : eps) header.push_back(Fmt("eps=%.1f", e));
  TextTable table(header);

  std::vector<std::vector<std::uint64_t>> totals(
      2, std::vector<std::uint64_t>(eps.size(), 0));

  const SelectionHeuristic heuristics[] = {
      SelectionHeuristic::kRandom, SelectionHeuristic::kBoundaryNearest};
  std::vector<SystemConfig> configs;
  for (SelectionHeuristic heuristic : heuristics) {
    for (double e : eps) {
      for (std::uint64_t seed : seeds) {
        SystemConfig config;
        RandomWalkConfig walk;
        walk.num_streams = 5000;
        walk.sigma = 20;
        walk.seed = seed;
        config.source = SourceSpec::Walk(walk);
        config.query = QuerySpec::Range(400, 600);
        config.protocol = ProtocolKind::kFtNrp;
        config.fraction = {e, e};
        config.ft.heuristic = heuristic;
        config.seed = seed;
        config.duration = 1000 * bench::Scale();
        configs.push_back(config);
      }
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  for (int h = 0; h < 2; ++h) {
    std::vector<std::string> row{
        std::string(SelectionHeuristicName(heuristics[h]))};
    for (std::size_t i = 0; i < eps.size(); ++i) {
      std::uint64_t total = 0;
      for (std::size_t s = 0; s < seeds.size(); ++s) {
        total += results[(h * eps.size() + i) * seeds.size() + s]
                     .MaintenanceMessages();
      }
      totals[h][i] = total / seeds.size();
      row.push_back(bench::Msgs(totals[h][i]));
    }
    table.AddRow(row);
  }
  // Gap row: random minus boundary-nearest.
  std::vector<std::string> gap{"gap (rand - bn)"};
  for (std::size_t i = 0; i < eps.size(); ++i) {
    gap.push_back(bench::Msgs(totals[0][i] >= totals[1][i]
                                  ? totals[0][i] - totals[1][i]
                                  : 0));
  }
  table.AddRow(gap);
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "fig14");
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return 0;
}
