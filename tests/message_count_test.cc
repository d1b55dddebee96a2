#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/config.h"
#include "engine/system.h"
#include "sim/scheduler.h"
#include "trace/tcp_synth.h"

// Two message counts that need no engine. For a static query on an
// instant net:
//  - a no-filter query's maintenance messages equal the stream updates
//    from its start on;
//  - a ZT-NRP range query's maintenance messages equal the updates that
//    flip a stream's membership in the range, counted from each stream's
//    value at the query's start.
// Both are counted here from the source alone (MakeStreams and a plain
// handler on a private Scheduler), so they check the engine independently
// of the golden digests, which the engine recorded itself.

namespace asf {
namespace {

constexpr double kLo = 400;
constexpr double kHi = 600;
constexpr SimTime kDuration = 800;

struct SourceCounts {
  std::uint64_t updates = 0;  ///< updates at or after the query's start
  std::uint64_t flips = 0;    ///< ... that flip membership in [kLo, kHi]
};

/// Replays `source` to kDuration with no engine. A deploy at the query's
/// start runs before a stream update at the same time, so updates at
/// exactly `start` count as after it.
SourceCounts CountFromSource(const SourceSpec& source, SimTime start) {
  std::unique_ptr<StreamSet> streams = MakeStreams(source);
  std::vector<Value> last = streams->values();
  SourceCounts counts;
  streams->set_update_handler([&](StreamId id, Value v, SimTime t) {
    if (t >= start) {
      ++counts.updates;
      const bool was = kLo <= last[id] && last[id] <= kHi;
      const bool is = kLo <= v && v <= kHi;
      counts.flips += was != is;
    }
    last[id] = v;
  });
  Scheduler scheduler;
  streams->Start(&scheduler, kDuration);
  scheduler.RunUntil(kDuration);
  return counts;
}

/// Runs one static [kLo, kHi] query of `protocol` through the engine
/// under scan and index dispatch and checks its maintenance messages.
void ExpectMaintenance(const SourceSpec& source, std::uint64_t seed,
                       SimTime start, ProtocolKind protocol,
                       std::uint64_t want, const std::string& label) {
  for (const DispatchPolicy policy :
       {DispatchPolicy::kScan, DispatchPolicy::kIndex}) {
    SystemConfig config;
    config.source = source;
    config.duration = kDuration;
    config.query_start = start;
    config.seed = seed;
    config.dispatch = policy;
    config.query = QuerySpec::Range(kLo, kHi);
    config.protocol = protocol;
    auto result = RunSystem(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->MaintenanceMessages(), want)
        << label << " " << ProtocolKindName(protocol) << " start " << start
        << " dispatch=" << DispatchPolicyName(policy);
  }
}

void ExpectBothCounts(const SourceSpec& source, std::uint64_t seed,
                      const std::string& label) {
  for (const SimTime start : {0.0, 150.0}) {
    const SourceCounts counts = CountFromSource(source, start);
    ASSERT_GT(counts.flips, 0u) << label;
    ASSERT_LT(counts.flips, counts.updates) << label;
    ExpectMaintenance(source, seed, start, ProtocolKind::kNoFilter,
                      counts.updates, label);
    ExpectMaintenance(source, seed, start, ProtocolKind::kZtNrp,
                      counts.flips, label);
  }
}

SourceSpec Walks(std::uint64_t seed) {
  RandomWalkConfig walk;
  walk.num_streams = 300;
  walk.seed = seed;
  return SourceSpec::Walk(walk);
}

TEST(MessageCountTest, WalkCountsPinTheSource) {
  // Seed 1 from start 0, as first counted without the engine. The walks
  // reschedule themselves by re-arming one event per stream; these counts
  // hold that the trajectories did not move.
  const SourceCounts counts = CountFromSource(Walks(1), 0);
  EXPECT_EQ(counts.updates, 11842u);
  EXPECT_EQ(counts.flips, 399u);
}

TEST(MessageCountTest, EngineMatchesTheSourceOnWalks) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    ExpectBothCounts(Walks(seed), seed, "walk seed " + std::to_string(seed));
  }
}

TEST(MessageCountTest, EngineMatchesTheSourceOnATcpTrace) {
  TcpSynthConfig synth;
  synth.num_subnets = 60;
  synth.total_connections = 4000;
  synth.duration = kDuration;
  synth.seed = 5;
  auto trace = GenerateTcpTrace(synth);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ExpectBothCounts(SourceSpec::Trace(&*trace), 1, "tcp trace");
}

}  // namespace
}  // namespace asf
