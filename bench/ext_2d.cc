/// Extension bench — multi-dimensional queries (paper §7: "The concepts of
/// our protocols can be extended to multiple dimensions").
///
/// Two 2-D experiments over a population of moving points:
///  1. Rectangle range query via FtRange2d (the plane analogue of FT-NRP):
///     messages vs tolerance, with both placement heuristics.
///  2. k-NN around a fixed post via the distance-stream reduction: the
///     UNMODIFIED 1-D rank protocols (ZT-RP / FT-RP / RTP) run on the
///     derived scalar stream s_i = |p_i − q|, whose interval bound is
///     exactly the disk bound in the plane.

#include "bench_common.h"
#include "geo/distance_streams.h"
#include "geo/range2d.h"
#include "sim/scheduler.h"

namespace asf {
namespace {

void RunRect() {
  std::printf("--- 2-D rectangle range query (FtRange2d) ---\n");
  const Rect zone(300, 700, 300, 700);
  const std::vector<double> eps{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

  TextTable table({"heuristic", "eps=0.0", "eps=0.1", "eps=0.2", "eps=0.3",
                   "eps=0.4", "eps=0.5", "violations"});
  for (int h = 0; h < 2; ++h) {
    const SelectionHeuristic heuristic =
        (h == 0) ? SelectionHeuristic::kRandom
                 : SelectionHeuristic::kBoundaryNearest;
    std::vector<std::string> row{
        std::string(SelectionHeuristicName(heuristic))};
    std::uint64_t violations = 0;
    std::uint64_t checks = 0;
    for (double e : eps) {
      PlaneWalkConfig config;
      config.num_streams = 2000;
      config.sigma = 20;
      config.seed = 53;
      PlaneWalkStreams walk(config);
      PlaneFilterBank filters(config.num_streams);
      MessageStats stats;
      Rng rng(53);

      FtRange2d::Transport transport;
      transport.probe = [&](StreamId id) {
        filters.at(id).SyncReference(walk.position(id));
        return walk.position(id);
      };
      transport.deploy = [&](StreamId id, const PlaneConstraint& c) {
        filters.Deploy(id, c, walk.position(id));
      };
      FtRange2d proto(config.num_streams, zone, FractionTolerance{e, e},
                      heuristic, &rng, transport, &stats);
      stats.set_phase(MessagePhase::kInit);
      proto.Initialize();
      stats.set_phase(MessagePhase::kMaintenance);

      Scheduler sched;
      const SimTime duration = 1000 * bench::Scale();
      std::uint64_t sampled = 0;
      walk.set_move_handler([&](StreamId id, const Point2& p, SimTime) {
        if (filters.at(id).OnMove(p)) {
          stats.Count(MessageType::kValueUpdate);
          proto.OnUpdate(id, p);
        }
        if (++sampled % 997 == 0) {  // cheap periodic oracle
          ++checks;
          if (!FtRange2d::CountErrors(walk.positions(), zone, proto.answer())
                   .Satisfies(FractionTolerance{e, e})) {
            ++violations;
          }
        }
      });
      walk.Start(&sched, duration);
      sched.RunUntil(duration);
      row.push_back(bench::Msgs(stats.MaintenanceTotal()));
    }
    row.push_back(bench::OracleCell(violations, checks));
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
}

void RunKnn() {
  std::printf("--- 2-D k-NN via the distance-stream reduction ---\n");
  const Point2 post{500, 500};
  TextTable table({"protocol", "messages", "reinits", "violations"});

  struct Case {
    const char* label;
    ProtocolKind protocol;
    double eps;
    std::size_t r;
  };
  const Case cases[] = {
      {"ZT-RP (exact)", ProtocolKind::kZtRp, 0, 0},
      {"FT-RP eps=0.2", ProtocolKind::kFtRp, 0.2, 0},
      {"FT-RP eps=0.4", ProtocolKind::kFtRp, 0.4, 0},
      {"RTP r=5", ProtocolKind::kRtp, 0, 5},
      {"RTP r=20", ProtocolKind::kRtp, 0, 20},
  };
  for (const Case& c : cases) {
    PlaneWalkConfig walk_config;
    walk_config.num_streams = 2000;
    walk_config.sigma = 15;
    walk_config.seed = 59;
    PlaneWalkStreams plane(walk_config);
    DistanceStreamSet distances(&plane, post);

    SystemConfig config;
    config.source = SourceSpec::Custom(&distances);
    config.query = QuerySpec::BottomK(20);
    config.protocol = c.protocol;
    config.fraction = {c.eps, c.eps};
    config.rank_r = c.r;
    config.duration = 250 * bench::Scale();
    config.oracle.sample_interval = config.duration / 50;
    const RunResult result = bench::MustRun(config);
    table.AddRow({c.label, bench::Msgs(result.MaintenanceMessages()),
                  Fmt("%llu", (unsigned long long)result.reinits),
                  bench::OracleCell(result)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void Run() {
  bench::PrintBanner(
      "Extension: 2-D queries (paper §7 generalization)",
      "(beyond the paper) the 1-D machinery carries to the plane: rect "
      "filters for range queries, disk bounds (via derived distance "
      "streams) for k-NN",
      "tolerance reduces messages in 2-D exactly as in 1-D; "
      "boundary-nearest still wins; FT-RP/RTP beat ZT-RP");
  RunRect();
  RunKnn();
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return asf::bench::ExitStatus();
}
