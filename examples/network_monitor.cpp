/// Network monitoring: the paper's §6.1 scenario. A central console
/// watches 800 subnet routers and continuously reports the top-k subnets
/// by transferred bytes, tolerating answers that rank up to r positions
/// below the true top-k (rank-based tolerance, RTP).
///
/// Shows how the rank slack r trades answer freshness for communication,
/// including the paper's observation that r = 0 can cost MORE than no
/// filters at all.

#include <cstdio>

#include "engine/system.h"
#include "example_common.h"
#include "trace/tcp_synth.h"

int main() {
  // Synthesize a wide-area TCP trace: 800 subnets, Zipf-skewed activity,
  // heavy-tailed connection sizes (substitute for the LBL archive; see
  // DESIGN.md §3).
  asf::TcpSynthConfig synth;
  synth.num_subnets = 800;
  synth.total_connections =
      static_cast<std::size_t>(45000 * asf_examples::Scale());
  synth.duration = 5000 * asf_examples::Scale();
  auto trace = asf::GenerateTcpTrace(synth);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace generation failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }

  std::printf("Top-20 subnets by bytes sent, 800 subnets, %zu connections\n\n",
              trace->records().size());

  asf::SystemConfig config;
  config.source = asf::SourceSpec::Trace(&trace.value());
  config.query = asf::QuerySpec::TopK(20);
  config.duration = synth.duration;
  config.oracle.sample_interval = 50;

  config.protocol = asf::ProtocolKind::kNoFilter;
  auto baseline = asf::RunSystem(config);
  if (!baseline.ok()) return 1;
  std::printf("%-22s %10llu messages\n", "no filter",
              (unsigned long long)baseline->MaintenanceMessages());

  config.protocol = asf::ProtocolKind::kRtp;
  for (std::size_t r : {0, 5, 10, 20}) {
    config.rank_r = r;
    auto result = asf::RunSystem(config);
    if (!result.ok()) {
      std::fprintf(stderr, "RTP run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("RTP r=%-17zu %10llu messages  (reinits=%llu, oracle "
                "%llu/%llu, worst rank %zu <= %zu)\n",
                r, (unsigned long long)result->MaintenanceMessages(),
                (unsigned long long)result->reinits,
                (unsigned long long)result->oracle_violations,
                (unsigned long long)result->oracle_checks,
                result->max_worst_rank, config.query.k + r);
  }

  std::printf("\nEvery RTP answer always contains exactly 20 subnets, each "
              "truly ranking within k + r.\n");
  return 0;
}
