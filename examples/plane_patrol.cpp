/// Plane patrol: the 2-D extension in action (paper §7). A command post
/// watches 1500 vehicles moving on a 1000×1000 field with two continuous
/// queries, each run by the unchanged 1-D protocols on a scalar every
/// vehicle derives from its own position:
///   * a rectangle geofence (2-D range query: FT-NRP with 20% fraction
///     tolerance over each vehicle's signed distance to the sector, ≤ 0
///     exactly inside) — which vehicles are inside the restricted sector?
///   * the 15 vehicles nearest the post (2-D k-NN: FT-RP over each
///     vehicle's distance to the post) — who can respond fastest?

#include <cstdio>

#include "engine/system.h"
#include "example_common.h"
#include "geo/distance_streams.h"

namespace {

/// Runs `config`'s query over `streams` for the showcase horizon, auditing
/// the answer every 20 time units. Prints the error and returns false if
/// the run fails.
bool Watch(asf::StreamSet* streams, asf::SystemConfig config,
           asf::RunResult* result) {
  config.source = asf::SourceSpec::Custom(streams);
  config.duration = 2000 * asf_examples::Scale();
  config.oracle.sample_interval = 20;
  auto run = asf::RunSystem(config);
  if (!run.ok()) {
    std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
    return false;
  }
  *result = std::move(run).value();
  return true;
}

}  // namespace

int main() {
  const asf::Rect sector(600, 900, 600, 900);
  const asf::Point2 post{200, 200};

  asf::PlaneWalkConfig walk_config;
  walk_config.num_streams = 1500;
  walk_config.sigma = 25;
  walk_config.seed = 61;

  // --- Query 1: geofence via FT-NRP on the signed distance ---
  {
    asf::PlaneWalkStreams walk(walk_config);
    asf::DistanceStreamSet signed_distances(&walk, sector);
    asf::SystemConfig config;
    config.query = asf::QuerySpec::Range(-asf::kInf, 0);
    config.protocol = asf::ProtocolKind::kFtNrp;
    config.fraction = {0.2, 0.2};
    asf::RunResult result;
    if (!Watch(&signed_distances, config, &result)) return 1;
    std::printf("Geofence %s over %zu vehicles (20%% tolerance):\n",
                sector.ToString().c_str(), walk.size());
    std::printf("  %llu maintenance messages for %llu moves; %.1f vehicles "
                "flagged on average; audits %llu/%llu clean\n\n",
                (unsigned long long)result.MaintenanceMessages(),
                (unsigned long long)result.updates_generated,
                result.answer_size.mean(),
                (unsigned long long)(result.oracle_checks -
                                     result.oracle_violations),
                (unsigned long long)result.oracle_checks);
  }

  // --- Query 2: nearest responders via the distance reduction ---
  {
    asf::PlaneWalkStreams walk(walk_config);
    asf::DistanceStreamSet distances(&walk, post);
    asf::SystemConfig config;
    config.query = asf::QuerySpec::BottomK(15);
    config.protocol = asf::ProtocolKind::kFtRp;
    config.fraction = {0.3, 0.3};
    asf::RunResult result;
    if (!Watch(&distances, config, &result)) return 1;
    std::printf("15 nearest vehicles to the post (%g, %g) via FT-RP on the "
                "derived distance stream:\n",
                post.x, post.y);
    std::printf("  %llu maintenance messages, %llu bound recomputations, "
                "answer size %.1f on average, oracle %llu/%llu clean\n",
                (unsigned long long)result.MaintenanceMessages(),
                (unsigned long long)result.reinits,
                result.answer_size.mean(),
                (unsigned long long)(result.oracle_checks -
                                     result.oracle_violations),
                (unsigned long long)result.oracle_checks);
  }
  return 0;
}
