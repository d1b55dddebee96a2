/// Figure 10 reproduction — "FT-NRP: Effect of ε+/ε−" on TCP data (§6.1).
///
/// Workload: synthetic wide-area TCP trace, 800 subnets; range query
/// [l, u] = [400, 600] classifying subnets by traffic volume. The surface
/// of maintenance messages over the (ε+, ε−) grid must slope downward as
/// either tolerance grows, and every cell must beat ZT-NRP (= the (0,0)
/// cell).

#include "bench_common.h"
#include "trace/tcp_synth.h"

namespace asf {
namespace {

void Run() {
  TcpSynthConfig synth;
  synth.num_subnets = 800;
  synth.total_connections =
      static_cast<std::uint64_t>(120000 * bench::Scale());
  synth.duration = 5000;
  synth.seed = 11;
  auto trace = GenerateTcpTrace(synth);
  ASF_CHECK(trace.ok());

  bench::PrintBanner(
      "Figure 10: FT-NRP on TCP data, messages vs (eps+, eps-)",
      "the message count decreases as eps+ and eps- increase; FT-NRP "
      "consistently beats ZT-NRP (the (0,0) corner)",
      "every row and column weakly decreasing; bottom-right corner the "
      "cheapest");

  SystemConfig base;
  base.source = SourceSpec::Trace(&trace.value());
  base.query = QuerySpec::Range(400, 600);
  base.protocol = ProtocolKind::kFtNrp;
  base.duration = synth.duration;
  base.oracle.sample_interval = synth.duration / 100;

  bench::PrintEpsGrid(base, "fig10");
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return asf::bench::ExitStatus();
}
