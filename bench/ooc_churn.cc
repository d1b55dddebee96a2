/// Out-of-core churn bench (DESIGN.md §13) — resident footprint and
/// buffer-pool behavior when the cumulative query population dwarfs the
/// peak live population.
///
/// Workload: a long-horizon churn schedule (Poisson arrivals with short
/// exponential lifetimes) whose cumulative deployment count is >= 20x
/// the peak live count. In-memory, the engine's resident state scales
/// with peak live (lazy slot wiring + spill-on-retire keep pre-deploy
/// and post-retire slots skeletal); with --spill the closed books move
/// to a page file through the buffer pool, whose size caps the RAM the
/// cold state may occupy.
///
/// The table sweeps pool sizes and replacement policies, reporting the
/// pool hit rate, resident frame bytes (the fixed cold-state ceiling),
/// and spill volume. tests/spill_test.cc runs the same workload and pool
/// points (SpillEquivalenceTest.OutOfCoreChurnIsPinned): every spilled
/// run must reproduce the in-memory run field by field, and the
/// population, peak and large-pool hit counts are pinned exactly.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench_common.h"
#include "engine/churn.h"
#include "engine/multi_system.h"
#include "metrics/table.h"
#include "storage/buffer_pool.h"

namespace asf {
namespace {

std::string ScratchDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr && env[0] != '\0' ? env : "/tmp";
}

struct PoolPoint {
  std::size_t buffer_pages;
  storage::ReplacementPolicy policy;
};

int Main() {
  const double scale = bench::Scale();
  const SimTime duration = 6000 * scale;

  std::printf("=== ooc_churn ===\n");
  std::printf("long-horizon churn: cumulative queries >> peak live; "
              "retired state spills to a page file through a buffer "
              "pool\n");
  std::printf("expect: hit rate rises with pool size; resident frame "
              "bytes = pool size, independent of cumulative volume\n\n");

  ChurnSpec spec;
  spec.arrival_rate = 0.25;
  spec.mean_lifetime = 60;  // short lives: most queries retire mid-run
  spec.seed = 71;
  auto deployments = ExpandChurn(spec, duration);
  ASF_CHECK_MSG(deployments.ok(), deployments.status().ToString().c_str());

  MultiQueryConfig base;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 13;
  base.source = SourceSpec::Walk(walk);
  base.duration = duration;
  base.seed = 13;
  base.queries = std::move(deployments).value();

  auto in_memory = RunMultiQuerySystem(base);
  ASF_CHECK_MSG(in_memory.ok(), in_memory.status().ToString().c_str());

  const std::size_t cumulative = in_memory->queries.size();
  const std::size_t peak = in_memory->peak_live_queries;
  const double cumulative_over_peak =
      peak > 0 ? static_cast<double>(cumulative) / peak : 0.0;
  std::printf("cumulative queries: %zu, peak live: %zu (%.1fx)\n\n",
              cumulative, peak, cumulative_over_peak);

  const PoolPoint points[] = {
      {4, storage::ReplacementPolicy::kLru},
      {32, storage::ReplacementPolicy::kLru},
      {32, storage::ReplacementPolicy::kFifo},
      {4096, storage::ReplacementPolicy::kLru},
  };

  TextTable table({"pool_pages", "policy", "hit_rate", "resident_bytes",
                   "records", "spilled_bytes", "file_bytes", "wall_s"});
  for (const PoolPoint& point : points) {
    MultiQueryConfig config = base;
    config.spill.dir = ScratchDir();
    config.spill.buffer_pages = point.buffer_pages;
    config.spill.replacement = point.policy;
    auto spilled = RunMultiQuerySystem(config);
    ASF_CHECK_MSG(spilled.ok(), spilled.status().ToString().c_str());
    const SpillTelemetry& t = spilled->spill;
    table.AddRow({Fmt("%zu", point.buffer_pages),
                  std::string(storage::ReplacementPolicyName(point.policy)),
                  Fmt("%.3f", t.PoolHitRate()),
                  Fmt("%llu", (unsigned long long)t.pool_resident_bytes),
                  Fmt("%llu", (unsigned long long)t.records_spilled),
                  Fmt("%llu", (unsigned long long)t.spilled_bytes),
                  Fmt("%llu", (unsigned long long)t.file_bytes),
                  Fmt("%.3f", spilled->wall_seconds)});
  }
  std::printf("%s", table.ToString().c_str());
  bench::MaybeWriteCsv(table, "ooc_churn");
  return 0;
}

}  // namespace
}  // namespace asf

int main() { return asf::Main(); }
