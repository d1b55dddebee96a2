/// Extension bench — multi-query deployments (paper §7 future work).
///
/// Q overlapping range queries run over one shared population of 2000
/// streams. Each query keeps its own filters and guarantees; the saving of
/// the shared deployment is that one physical update message serves every
/// query whose filter fired on the same value change. This harness
/// reports, per query count Q:
///   * logical  — what Q independent single-query systems would transmit,
///   * physical — what the shared system transmits,
///   * saving   — the sharing gain on update traffic.

#include "bench_common.h"
#include "engine/multi_system.h"

namespace asf {
namespace {

void Run() {
  bench::PrintBanner(
      "Extension: multi-query sharing (paper §7 future work)",
      "(beyond the paper) overlapping continuous range queries share "
      "physical update messages",
      "physical < logical, and the saving grows with the number of "
      "overlapping queries");

  TextTable table({"queries", "logical", "physical", "saving", "violations"});
  for (std::size_t num_queries : {1u, 2u, 4u, 8u, 16u}) {
    MultiQueryConfig config;
    RandomWalkConfig walk;
    walk.num_streams = 2000;
    walk.seed = 47;
    config.source = SourceSpec::Walk(walk);
    config.duration = 500 * bench::Scale();
    config.oracle.sample_interval = config.duration / 20;
    // Interleaved, heavily overlapping bands around the middle of the
    // domain (a dashboard drilling into the same hot region).
    for (std::size_t q = 0; q < num_queries; ++q) {
      QueryDeployment dep;
      dep.name = Fmt("band%zu", q);
      const double lo = 350 + 10.0 * static_cast<double>(q);
      dep.query = QuerySpec::Range(lo, lo + 200);
      dep.protocol = ProtocolKind::kFtNrp;
      dep.fraction = {0.2, 0.2};
      config.queries.push_back(dep);
    }
    const auto result = RunMultiQuerySystem(config);
    ASF_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    std::uint64_t violations = 0;
    std::uint64_t checks = 0;
    for (const auto& q : result->queries) {
      violations += q.oracle_violations;
      checks += q.oracle_checks;
    }
    const std::uint64_t logical = result->LogicalUpdates();
    const std::uint64_t physical = result->physical_updates;
    table.AddRow({Fmt("%zu", num_queries), bench::Msgs(logical),
                  bench::Msgs(physical),
                  Fmt("%.0f%%", logical == 0
                                    ? 0.0
                                    : 100.0 * (1.0 - static_cast<double>(
                                                         physical) /
                                                         static_cast<double>(
                                                             logical))),
                  bench::OracleCell(violations, checks)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return asf::bench::ExitStatus();
}
