/// Figure 15 reproduction — "ZT-RP/FT-RP: Effect of ε+/ε−" (§6.2).
///
/// Workload: the synthetic random-walk model (5000 streams); continuous
/// k-NN query at q = 500 for k ∈ {20, 60, 100}; ε+ = ε− swept from 0
/// (ZT-RP) to 0.5. The paper plots messages on a log scale: "for k equals
/// 60 or 100, the number of messages drops significantly with a slight
/// increase in tolerance ... the protocol does not perform well at k = 20
/// and ε = 0.1" (small k funds too few silent filters to offset the
/// maintenance cost).

#include <cmath>

#include "bench_common.h"

namespace asf {
namespace {

void Run() {
  bench::PrintBanner(
      "Figure 15: ZT-RP (eps=0) and FT-RP, messages (log10) vs tolerance",
      "orders-of-magnitude drop from eps=0 to eps=0.1 for k=60/100; k=20 "
      "benefits less at small eps",
      "each row decreases left-to-right; the eps=0 column is the most "
      "expensive by a wide margin");

  const std::vector<double> eps{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<std::string> header{"k"};
  for (double e : eps) header.push_back(Fmt("eps=%.1f", e));
  TextTable table(header);
  TextTable log_table(header);

  const std::vector<std::size_t> ks{20, 60, 100};
  std::vector<SystemConfig> configs;
  for (std::size_t k : ks) {
    for (double e : eps) {
      SystemConfig config;
      RandomWalkConfig walk;
      walk.num_streams = 5000;
      walk.sigma = 20;
      walk.seed = 29;
      config.source = SourceSpec::Walk(walk);
      config.query = QuerySpec::Knn(k, 500);
      // eps = 0 runs the zero-tolerance protocol, as in the paper's plot.
      config.protocol = (e == 0.0) ? ProtocolKind::kZtRp
                                   : ProtocolKind::kFtRp;
      config.fraction = {e, e};
      config.duration = 300 * bench::Scale();
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  for (std::size_t ki = 0; ki < ks.size(); ++ki) {
    std::vector<std::string> row{Fmt("k=%zu", ks[ki])};
    std::vector<std::string> log_row{Fmt("k=%zu", ks[ki])};
    for (std::size_t ei = 0; ei < eps.size(); ++ei) {
      const RunResult& result = results[ki * eps.size() + ei];
      row.push_back(bench::Msgs(result.MaintenanceMessages()));
      log_row.push_back(
          Fmt("%.2f", std::log10(static_cast<double>(
                          std::max<std::uint64_t>(
                              result.MaintenanceMessages(), 1)))));
    }
    table.AddRow(row);
    log_table.AddRow(log_row);
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "fig15");
  bench::MaybeWriteCsv(log_table, "fig15_log10");
  std::printf("log10 view (the paper's axis):\n%s\n",
              log_table.ToString().c_str());
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return 0;
}
