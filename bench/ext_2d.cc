/// Extension bench — multi-dimensional queries (paper §7: "The concepts of
/// our protocols can be extended to multiple dimensions").
///
/// Two 2-D experiments over a population of moving points, both through
/// the UNMODIFIED 1-D protocols on a derived scalar stream
/// (geo/distance_streams.h):
///  1. Rectangle range query: FT-NRP over each point's signed distance to
///     the rectangle, queried over (−∞, 0] — messages vs tolerance, with
///     both placement heuristics.
///  2. k-NN around a fixed post: ZT-RP / FT-RP / RTP over the distance
///     s_i = |p_i − q|, whose interval bound is exactly the disk bound in
///     the plane.
///
/// The engine rejects custom sources in a sweep (each run needs a freshly
/// built stream set), so every cell is one bench::MustRun.

#include "bench_common.h"
#include "geo/distance_streams.h"

namespace asf {
namespace {

void RunRect() {
  std::printf("--- 2-D rectangle range query (FT-NRP on the signed "
              "distance) ---\n");
  const Rect zone(300, 700, 300, 700);
  const std::vector<double> eps{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

  TextTable table({"heuristic", "eps=0.0", "eps=0.1", "eps=0.2", "eps=0.3",
                   "eps=0.4", "eps=0.5", "violations"});
  for (const SelectionHeuristic heuristic :
       {SelectionHeuristic::kRandom, SelectionHeuristic::kBoundaryNearest}) {
    std::vector<std::string> row{
        std::string(SelectionHeuristicName(heuristic))};
    std::uint64_t violations = 0;
    std::uint64_t checks = 0;
    for (double e : eps) {
      PlaneWalkConfig walk_config;
      walk_config.num_streams = 2000;
      walk_config.sigma = 20;
      walk_config.seed = 53;
      PlaneWalkStreams walk(walk_config);
      DistanceStreamSet signed_distances(&walk, zone);

      SystemConfig config;
      config.source = SourceSpec::Custom(&signed_distances);
      config.query = QuerySpec::Range(-kInf, 0);
      config.protocol = ProtocolKind::kFtNrp;
      config.fraction = {e, e};
      config.ft.heuristic = heuristic;
      config.seed = 53;
      config.duration = 1000 * bench::Scale();
      config.oracle.sample_interval = config.duration / 50;
      const RunResult result = bench::MustRun(config);
      row.push_back(bench::Msgs(result.MaintenanceMessages()));
      violations += result.oracle_violations;
      checks += result.oracle_checks;
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
