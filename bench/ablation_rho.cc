/// Ablation — FT-RP ρ+/ρ− split policy (paper Equation 16).
///
/// Equation 16 fixes one degree of freedom between the inner tolerances
/// ρ+ and ρ−; the paper does not say how to spend it. This harness
/// compares the three admissible policies (DESIGN.md §4): balanced,
/// all-on-ρ+ (favor false-positive filters), all-on-ρ− (favor
/// false-negative filters), at equal user tolerance.

#include "bench_common.h"
#include "tolerance/tolerance.h"

namespace asf {
namespace {

void Run() {
  bench::PrintBanner(
      "Ablation: FT-RP rho split policy (Equation 16)",
      "(beyond the paper) how the Eq 16 degree of freedom is spent",
      "all policies are correct; message costs differ modestly — balanced "
      "is a safe default");

  const std::vector<double> eps{0.2, 0.3, 0.4, 0.5};
  TextTable table({"policy", "eps=0.2", "eps=0.3", "eps=0.4", "eps=0.5",
                   "oracle_viol"});
  const struct {
    RhoPolicy policy;
    const char* name;
  } policies[] = {
      {RhoPolicy::kBalanced, "balanced"},
      {RhoPolicy::kFavorPositive, "favor-positive"},
      {RhoPolicy::kFavorNegative, "favor-negative"},
  };
  std::vector<SystemConfig> configs;
  for (const auto& p : policies) {
    for (double e : eps) {
      SystemConfig config;
      RandomWalkConfig walk;
      walk.num_streams = 2000;
      walk.seed = 37;
      config.source = SourceSpec::Walk(walk);
      config.query = QuerySpec::Knn(60, 500);
      config.protocol = ProtocolKind::kFtRp;
      config.fraction = {e, e};
      config.ft.rho = p.policy;
      config.duration = 400 * bench::Scale();
      config.oracle.sample_interval = config.duration / 50;
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  for (std::size_t pi = 0; pi < std::size(policies); ++pi) {
    std::vector<std::string> row{policies[pi].name};
    std::uint64_t violations = 0;
    std::uint64_t checks = 0;
    for (std::size_t ei = 0; ei < eps.size(); ++ei) {
      const RunResult& result = results[pi * eps.size() + ei];
      row.push_back(bench::Msgs(result.MaintenanceMessages()));
      violations += result.oracle_violations;
      checks += result.oracle_checks;
    }
    row.push_back(bench::OracleCell(violations, checks));
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return asf::bench::ExitStatus();
}
