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

  bench::PrintEpsGrid(base, "fig12");
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return asf::bench::ExitStatus();
}
