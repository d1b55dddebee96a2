/// net_loss — what unreliable delivery costs: protocol × fault-schedule
/// grid over the fault pipeline (DESIGN.md §11).
///
/// The paper's protocols assume a lossless network; this harness sweeps
/// loss rates (i.i.d. and bursty), scheduled partitions, and the
/// disruption-tolerance knobs (retransmitting deploys, reconnect
/// reconciliation) and records what filtering still saves when the wire
/// eats messages:
///
///  * loss:p          — delivered messages fall ~linearly in p while the
///    retransmitting control plane keeps filters converging (retx per
///    deploy rises with p);
///  * loss:p:b        — the same stationary rate in bursts; deploy
///    retransmission clusters where the chain goes bad;
///  * partition       — crossings inside the windows drop entirely; the
///    up-edge reconciliation repairs the server view, `norecon` shows
///    what it is worth.
///
/// Every column is deterministic simulation currency (message and drop
/// counts, never wall time): tests/net_fault_test.cc pins three loss
/// points' crossings, deliveries, losses and in-flight counts exactly
/// (NetFaultConservationTest.NetLossPointsArePinned).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "engine/system.h"
#include "metrics/table.h"

namespace asf {
namespace {

struct ProtoCase {
  const char* label;
  ProtocolKind protocol;
  QuerySpec query;
  double eps;
  std::size_t rank_r;
};

struct NetCase {
  const char* label;
  const char* spec;
};

int Main() {
  const double scale = bench::Scale();
  bench::PrintBanner(
      "net_loss: message savings & convergence vs unreliable delivery",
      "the paper's protocols assume a lossless network; here the wire "
      "drops, reorders and partitions",
      "loss: delivered messages fall ~linearly while deploy retx keeps "
      "filters converging; partition: windows drop everything and the "
      "up-edge reconciliation repairs the server view");

  const ProtoCase protos[] = {
      {"nofilter", ProtocolKind::kNoFilter, QuerySpec::Range(400, 600), 0, 0},
      {"ztnrp", ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0},
      {"ftnrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0},
  };
  const NetCase nets[] = {
      {"p00", "latency:2"},
      {"p02", "latency:2+loss:0.02"},
      {"p05", "latency:2+loss:0.05"},
      {"p10", "latency:2+loss:0.1"},
      {"p20", "latency:2+loss:0.2"},
      {"b05x4", "latency:2+loss:0.05:4"},
      {"part", "latency:2+partition:600.5,900.5,1500.5,1800.5"},
      {"part_norec", "latency:2+partition:600.5,900.5,1500.5,1800.5+norecon"},
  };

  std::vector<SystemConfig> configs;
  for (const ProtoCase& p : protos) {
    for (const NetCase& n : nets) {
      SystemConfig config;
      RandomWalkConfig walk;
      walk.num_streams = 400;
      walk.seed = 17;
      config.source = SourceSpec::Walk(walk);
      config.query = p.query;
      config.protocol = p.protocol;
      config.fraction = {p.eps, p.eps};
      config.rank_r = p.rank_r;
      config.duration = 2000 * scale;
      config.seed = 17;
      config.oracle.sample_interval = 20;
      auto net = ParseNetSpec(n.spec);
      ASF_CHECK_MSG(net.ok(), net.status().ToString().c_str());
      config.net = *net;
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  TextTable table({"protocol", "net", "maint_msgs", "crossings", "delivered",
                   "lost", "partitioned", "deploy_retx", "recon",
                   "viol_rate"});
  std::size_t i = 0;
  for (const ProtoCase& p : protos) {
    for (const NetCase& n : nets) {
      const RunResult& r = results[i++];
      const double viol_rate =
          r.oracle_checks > 0
              ? static_cast<double>(r.oracle_violations) /
                    static_cast<double>(r.oracle_checks)
              : 0.0;
      const double delivered_frac =
          r.net.crossings > 0
              ? static_cast<double>(r.net.delivered_crossings) /
                    static_cast<double>(r.net.crossings)
              : 1.0;
      table.AddRow({p.label, n.label, bench::Msgs(r.MaintenanceMessages()),
                    Fmt("%llu", (unsigned long long)r.net.crossings),
                    Fmt("%.3f", delivered_frac),
                    Fmt("%llu", (unsigned long long)r.net.dropped_loss),
                    Fmt("%llu", (unsigned long long)r.net.dropped_partition),
                    Fmt("%llu", (unsigned long long)r.net.deploy_retransmits),
                    Fmt("%llu", (unsigned long long)r.net.reconcile_deploys),
                    Fmt("%.3f", viol_rate)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "net_loss");
  return 0;
}

}  // namespace
}  // namespace asf

int main() { return asf::Main(); }
