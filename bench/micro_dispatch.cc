/// Microbenchmark of the multi-query update dispatch path — the fig11
/// scalability hot loop. Measurements:
///
///  * strip_scan Q=64/256/1024: the per-update crossing kernel over Q
///    queries' filters for one stream, exactly as the engine's update
///    handler runs it — the FilterArena SoA strips swept by the SIMD
///    kernel (src/common/simd.h; the q1024 point tracks the scaling curve
///    past the pre-SoA q256 cliff).
///  * aos_scan Q=256: the pre-SoA reference — scalar Filter::OnValueChange
///    over an array-of-structs strip. simd_speedup_q256 is the in-process
///    ratio kernel/AoS, the machine-stable metric CI guards.
///  * engine Q=64: end-to-end RunMultiQuerySystem throughput (generated
///    updates per wall second) with Q concurrent range queries over a
///    shared random-walk population.
///  * scan/index/auto crossover series Q=64..1M: the three dispatch
///    policies (DESIGN.md §10) replaying identical random-walk sequences
///    through FilterArena::DispatchUpdate. The scan does O(Q) work per
///    update; the interval index does O(log Q + crossings), so the series
///    locates the crossover and calibrates kDefaultAutoCrossover.
///
/// Writes BENCH_micro_dispatch.json by default (--json=PATH to override,
/// --json= to disable) and the crossover series to
/// BENCH_index_crossover.json (--crossover-json=PATH / empty to disable).

#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/simd.h"
#include "engine/multi_system.h"
#include "filter/dispatch.h"
#include "filter/filter_arena.h"
#include "metrics/bench_json.h"

namespace asf {
namespace {

constexpr std::size_t kStreams = 800;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Staggered range constraints so a realistic minority fire per update
/// (same shapes as the engine measurement below).
FilterConstraint QueryConstraint(std::size_t q) {
  const double lo = 100.0 + 50.0 * static_cast<double>(q % 16);
  return FilterConstraint::Range(Interval(lo, lo + 100.0));
}

struct UpdateMix {
  std::vector<Value> values;
  std::vector<StreamId> ids;

  explicit UpdateMix(std::size_t num_streams) {
    Rng rng(7);
    for (int i = 0; i < 4096; ++i) {
      values.push_back(rng.Uniform(0, 1000));
      ids.push_back(static_cast<StreamId>(
          rng.Uniform(0, static_cast<double>(num_streams))));
    }
  }
};

/// The engine's inner loop in isolation: the SIMD crossing kernel over the
/// contiguous SoA strip of Q filters for the updated stream.
double StripScanUpdatesPerSec(std::size_t q_count,
                              std::uint64_t total_updates) {
  FilterArena arena(kStreams);
  for (std::size_t q = 0; q < q_count; ++q) {
    const std::size_t c = arena.Acquire();
    for (StreamId id = 0; id < kStreams; ++id) {
      arena.Deploy(id, c, QueryConstraint(q), 500.0);
    }
  }
  const UpdateMix mix(kStreams);

  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t u = 0; u < total_updates; ++u) {
    const StreamId id = mix.ids[u & 4095];
    const std::uint64_t* words = arena.EvaluateUpdate(id, mix.values[u & 4095]);
    for (std::size_t w = 0; w < arena.fired_words(); ++w) {
      fired += static_cast<std::uint64_t>(__builtin_popcountll(words[w]));
    }
  }
  const double elapsed = Seconds(start);
  if (fired == 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(total_updates) / elapsed;
}

/// The pre-SoA reference: scalar OnValueChange over an AoS strip, exactly
/// the dispatch loop this kernel replaced (PR 2/3 layout).
double AosScanUpdatesPerSec(std::size_t q_count,
                            std::uint64_t total_updates) {
  std::vector<Filter> storage(kStreams * q_count);
  for (std::size_t q = 0; q < q_count; ++q) {
    for (StreamId id = 0; id < kStreams; ++id) {
      storage[id * q_count + q].Deploy(QueryConstraint(q), 500.0);
    }
  }
  const UpdateMix mix(kStreams);

  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t u = 0; u < total_updates; ++u) {
    const StreamId id = mix.ids[u & 4095];
    const Value v = mix.values[u & 4095];
    Filter* strip = &storage[id * q_count];
    for (std::size_t q = 0; q < q_count; ++q) {
      if (strip[q].OnValueChange(v)) ++fired;
    }
  }
  const double elapsed = Seconds(start);
  if (fired == 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(total_updates) / elapsed;
}

/// One point of the scan/index crossover series. Large Q needs few
/// streams: the arena keeps Q bound lanes per strip, so Q=1M with the
/// usual 800 streams would be ~13 GB of lanes.
struct CrossoverPoint {
  const char* tag;              ///< metric-key suffix ("q16k")
  std::size_t q;                ///< live filter columns
  std::size_t streams;          ///< strips in the arena
  std::uint64_t scan_updates;   ///< measured updates on the O(Q) path
  std::uint64_t index_updates;  ///< measured updates on the indexed path
};

/// Dispatch throughput at one (Q, policy) point. Every policy replays the
/// same small-step random walks — small steps keep the crossing count per
/// update a vanishing fraction of Q, the output-sensitive regime the
/// index targets (uniform value jumps would cross ~half the endpoints and
/// hide the asymmetry).
double CrossoverUpdatesPerSec(const CrossoverPoint& pt, DispatchPolicy policy,
                              std::uint64_t total_updates) {
  FilterArena arena(pt.streams);
  arena.SetDispatchPolicy(policy);
  // Distinct narrow windows spread over the value space, deterministic
  // per point so scan/index/auto see identical filters.
  Rng qrng(101);
  for (std::size_t q = 0; q < pt.q; ++q) {
    const std::size_t c = arena.Acquire();
    const double lo = qrng.Uniform(0, 950);
    const FilterConstraint constraint =
        FilterConstraint::Range(Interval(lo, lo + 50.0));
    for (StreamId id = 0; id < pt.streams; ++id) {
      arena.Deploy(id, c, constraint, 500.0);
    }
  }

  constexpr std::size_t kWalkLen = 4096;
  std::vector<std::vector<Value>> walks(pt.streams);
  for (std::size_t id = 0; id < pt.streams; ++id) {
    Rng rng(MixSeed(303, id));
    double v = 500.0;
    walks[id].reserve(kWalkLen);
    for (std::size_t i = 0; i < kWalkLen; ++i) {
      v += rng.Uniform(-1.5, 1.5);
      if (v < 1.0) v = 1.0;
      if (v > 999.0) v = 999.0;
      walks[id].push_back(v);
    }
  }

  std::vector<std::uint32_t> fired;
  std::uint64_t fired_total = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t u = 0; u < total_updates; ++u) {
    const StreamId id = static_cast<StreamId>(u % pt.streams);
    arena.DispatchUpdate(id, walks[id][(u / pt.streams) % kWalkLen], &fired);
    fired_total += fired.size();
  }
  const double elapsed = Seconds(start);
  if (fired_total == 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(total_updates) / elapsed;
}

/// End-to-end: Q range queries with staggered windows over one shared
/// walk population, protocol ZT-NRP (pure filter maintenance, no
/// tolerance slack) — the fig11 configuration shape.
double EngineUpdatesPerSec(std::size_t num_streams, std::size_t q_count,
                           double duration, std::uint64_t* out_updates) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = num_streams;
  walk.seed = 9;
  config.source = SourceSpec::Walk(walk);
  config.duration = duration;
  config.seed = 9;
  for (std::size_t q = 0; q < q_count; ++q) {
    QueryDeployment dep;
    dep.name = "q";
    dep.name += std::to_string(q);
    const double lo = 100.0 + 50.0 * static_cast<double>(q % 16);
    dep.query = QuerySpec::Range(lo, lo + 100.0);
    dep.protocol = ProtocolKind::kZtNrp;
    config.queries.push_back(dep);
  }
  auto result = RunMultiQuerySystem(config);
  ASF_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  *out_updates = result->updates_generated;
  return static_cast<double>(result->updates_generated) /
         result->wall_seconds;
}

/// Writes `metrics` as BENCH json to `path` (empty disables); false on a
/// failed write.
bool WriteMetrics(const std::string& path, const char* bench,
                  const std::vector<std::pair<std::string, double>>& metrics) {
  if (path.empty()) return true;
  metrics::JsonWriter writer(bench);
  writer.AddMetrics(metrics);
  const Status status = writer.WriteTo(path);
  if (!status.ok()) {
    std::fprintf(stderr, "json export failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  const double scale = bench::Scale();

  std::printf("=== micro_dispatch (simd backend: %s, %d lanes) ===\n",
              simd::KernelBackend(), simd::KernelLanes());
  const double scan64 = StripScanUpdatesPerSec(
      64, static_cast<std::uint64_t>(2'000'000 * scale));
  std::printf("strip_scan Q=64    %12.3e updates/sec\n", scan64);
  const double scan256 = StripScanUpdatesPerSec(
      256, static_cast<std::uint64_t>(2'000'000 * scale));
  std::printf("strip_scan Q=256   %12.3e updates/sec\n", scan256);
  const double scan1024 = StripScanUpdatesPerSec(
      1024, static_cast<std::uint64_t>(500'000 * scale));
  std::printf("strip_scan Q=1024  %12.3e updates/sec\n", scan1024);

  const double aos256 = AosScanUpdatesPerSec(
      256, static_cast<std::uint64_t>(500'000 * scale));
  std::printf("aos_scan   Q=256   %12.3e updates/sec  (pre-SoA reference)\n",
              aos256);
  const double speedup256 = scan256 / aos256;
  std::printf("simd_speedup Q=256 %12.2fx\n", speedup256);

  std::uint64_t updates = 0;
  const double engine64 =
      EngineUpdatesPerSec(kStreams, 64, 2000 * scale, &updates);
  std::printf("engine Q=64        %12.3e updates/sec  (%llu updates)\n",
              engine64, static_cast<unsigned long long>(updates));

  // --- scan/index/auto crossover series (DESIGN.md §10) ---
  const CrossoverPoint points[] = {
      {"q64", 64, 512, 2'000'000, 2'000'000},
      {"q1k", 1024, 512, 400'000, 1'000'000},
      {"q16k", 16384, 256, 60'000, 600'000},
      {"q256k", 262144, 16, 6'000, 200'000},
      {"q1m", 1048576, 4, 1'500, 60'000},
  };
  std::printf("\ncrossover series (scan vs index vs auto, updates/sec):\n");
  std::vector<std::pair<std::string, double>> xmetrics;
  double crossover_q = 0.0;
  double auto_efficiency_min = 1e300;
  double index_speedup_q16k = 0.0;
  for (const CrossoverPoint& pt : points) {
    const auto scaled = [scale](std::uint64_t n) {
      const auto s = static_cast<std::uint64_t>(static_cast<double>(n) * scale);
      return s > 0 ? s : std::uint64_t{1};
    };
    const double scan = CrossoverUpdatesPerSec(pt, DispatchPolicy::kScan,
                                               scaled(pt.scan_updates));
    const double index = CrossoverUpdatesPerSec(pt, DispatchPolicy::kIndex,
                                                scaled(pt.index_updates));
    const double autod = CrossoverUpdatesPerSec(
        pt, DispatchPolicy::kAuto,
        scaled(pt.q >= kDefaultAutoCrossover ? pt.index_updates
                                             : pt.scan_updates));
    const double speedup = index / scan;
    std::printf("  Q=%-8zu scan %10.3e  index %10.3e  auto %10.3e"
                "  (index/scan %8.2fx)\n",
                pt.q, scan, index, autod, speedup);
    const std::string tag = pt.tag;
    xmetrics.emplace_back("scan_" + tag + "_updates_per_sec", scan);
    xmetrics.emplace_back("index_" + tag + "_updates_per_sec", index);
    xmetrics.emplace_back("auto_" + tag + "_updates_per_sec", autod);
    xmetrics.emplace_back("index_speedup_" + tag, speedup);
    if (crossover_q == 0.0 && index >= scan) {
      crossover_q = static_cast<double>(pt.q);
    }
    const double best = scan > index ? scan : index;
    const double efficiency = autod / best;
    if (efficiency < auto_efficiency_min) auto_efficiency_min = efficiency;
    if (tag == "q16k") index_speedup_q16k = speedup;
  }
  std::printf("crossover_q %.0f (first measured Q where index beats scan; "
              "auto constant %zu)\nauto_efficiency_min %.2f (auto vs "
              "better-of-two, worst point)\n",
              crossover_q, std::size_t{kDefaultAutoCrossover},
              auto_efficiency_min);
  xmetrics.emplace_back("crossover_q", crossover_q);
  xmetrics.emplace_back("auto_efficiency_min", auto_efficiency_min);
  xmetrics.emplace_back("auto_crossover_constant",
                        static_cast<double>(kDefaultAutoCrossover));

  std::string path = "BENCH_micro_dispatch.json";
  std::string xpath = "BENCH_index_crossover.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) path = argv[i] + 7;
    if (std::strncmp(argv[i], "--crossover-json=", 17) == 0) {
      xpath = argv[i] + 17;
    }
  }
  const bool written =
      WriteMetrics(xpath, "index_crossover", xmetrics) &&
      WriteMetrics(
          path, "micro_dispatch",
          {{"strip_scan_q64_updates_per_sec", scan64},
           {"strip_scan_q256_updates_per_sec", scan256},
           {"strip_scan_q1024_updates_per_sec", scan1024},
           {"aos_scan_q256_updates_per_sec", aos256},
           {"simd_speedup_q256", speedup256},
           {"engine_q64_updates_per_sec", engine64},
           {"index_speedup_q16k", index_speedup_q16k},
           {"crossover_q", crossover_q},
           {"simd_lanes", static_cast<double>(simd::KernelLanes())}});
  return written ? 0 : 1;
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) { return asf::Main(argc, argv); }
