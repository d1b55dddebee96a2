/// net_delay — what message delivery costs: protocol × delivery-model
/// grid over the network subsystem (DESIGN.md §9).
///
/// The paper's entire evaluation counts messages under instantaneous
/// delivery; this harness sweeps the delivery models that relax that
/// assumption and records what the message savings cost in freshness:
///
///  * FixedLatency (latency:D)   — staleness ≈ D, violation rate grows
///    with D while message counts stay put;
///  * Batched (batch:Δ)          — wire messages *drop* (crossings
///    coalesce, messages-per-flush > 1) while staleness ≈ Δ/2 grows;
///  * BoundedBandwidth (bw:R)    — queueing delay explodes as R falls
///    below the crossing rate (staleness ≫ service time under bursts).
///
/// Message counts are deterministic simulation currency, not wall time:
/// tests/net_model_test.cc pins the batching points' crossings and wire
/// messages exactly (NetStalenessTest.NetDelayBatchingPointsArePinned).

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
      "net_delay: staleness & violation rate vs delivery model",
      "the paper assumes instantaneous messages; savings are counted, "
      "delay is not",
      "latency: staleness ~ D at equal messages; batch: fewer wire "
      "messages (per-flush > 1) at staleness ~ delta/2; bw: queueing "
      "delay blows up as the rate drops");

  const ProtoCase protos[] = {
      {"ftnrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0},
      {"rtp", ProtocolKind::kRtp, QuerySpec::Knn(10, 500), 0, 5},
  };
  const NetCase nets[] = {
      {"instant", "instant"}, {"lat2", "latency:2"},   {"lat10", "latency:10"},
      {"lat50", "latency:50"}, {"b5", "batch:5"},      {"b20", "batch:20"},
      {"b80", "batch:80"},     {"bw_2", "bw:0.2"},     {"bw_05", "bw:0.05"},
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

  TextTable table({"protocol", "net", "maint_msgs", "wire_updates",
                   "per_flush", "stale_mean", "stale_max", "viol_rate",
                   "viol_in_flight"});
  std::size_t i = 0;
  for (const ProtoCase& p : protos) {
    for (const NetCase& n : nets) {
      const RunResult& r = results[i++];
      const double viol_rate =
          r.oracle_checks > 0
              ? static_cast<double>(r.oracle_violations) /
                    static_cast<double>(r.oracle_checks)
              : 0.0;
      table.AddRow(
          {p.label, n.label, bench::Msgs(r.MaintenanceMessages()),
           Fmt("%llu", (unsigned long long)r.net.update_messages),
           Fmt("%.2f", r.net.MessagesPerFlush()),
           Fmt("%.2f", r.update_delay.mean()),
           Fmt("%.2f", r.update_delay.max()), Fmt("%.3f", viol_rate),
           Fmt("%llu", (unsigned long long)r.oracle_violations_in_flight)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "net_delay");
  return 0;
}

}  // namespace
}  // namespace asf

int main() { return asf::Main(); }
