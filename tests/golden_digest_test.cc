#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "engine/churn.h"
#include "engine/multi_system.h"
#include "engine/system.h"
#include "geo/distance_streams.h"
#include "result_equality.h"
#include "trace/tcp_synth.h"

// Golden result digests: canonical runs, each pinned to a digest of every
// result field (result_equality.h) over raw IEEE bits. A refactor or a
// deletion that keeps the engine's behaviour keeps every constant; an
// intended output change re-records the constants it moves and says why.
// Every run executes under the scan and the index dispatch policy against
// the same constant. On a mismatch the test prints the run's fields, so
// two builds that disagree can be diffed field by field.

namespace asf {
namespace {

std::string Hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, value);
  return buf;
}

template <typename Config, typename Run>
void ExpectGolden(Config config, Run run, std::uint64_t golden,
                  const std::string& label) {
  for (const DispatchPolicy policy :
       {DispatchPolicy::kScan, DispatchPolicy::kIndex}) {
    config.dispatch = policy;
    auto result = run(config);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    const std::uint64_t digest = DigestOf(*result);
    EXPECT_EQ(Hex(digest), Hex(golden))
        << label << " dispatch=" << DispatchPolicyName(policy) << "\n"
        << FieldDump(*result);
  }
}

void ExpectGolden(const SystemConfig& config, std::uint64_t golden,
                  const std::string& label) {
  ExpectGolden(config, RunSystem, golden, label);
}

void ExpectGolden(const MultiQueryConfig& config, std::uint64_t golden,
                  const std::string& label) {
  ExpectGolden(config, RunMultiQuerySystem, golden, label);
}

NetConfig Net(const char* spec) {
  auto net = ParseNetSpec(spec);
  EXPECT_TRUE(net.ok()) << spec;
  return net.ok() ? *net : NetConfig{};
}

/// 300 walks for 600 time units, the oracle judging every 60: ranges
/// [400, 600] for the range protocols, 10-NN around 500 for the rank
/// protocols, ε = 0.2 where a fraction tolerance applies, r = 3 for RTP.
SystemConfig WalkConfig(ProtocolKind protocol) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 300;
  walk.seed = 7;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 7;
  config.oracle.sample_interval = 60;
  config.protocol = protocol;
  const bool rank = protocol == ProtocolKind::kRtp ||
                    protocol == ProtocolKind::kZtRp ||
                    protocol == ProtocolKind::kFtRp;
  config.query = rank ? QuerySpec::Knn(10, 500) : QuerySpec::Range(400, 600);
  config.rank_r = 3;
  config.fraction = {0.2, 0.2};
  return config;
}

TEST(GoldenDigestTest, SixProtocolsOnInstantNet) {
  const struct {
    ProtocolKind protocol;
    std::uint64_t digest;
  } kCases[] = {
      {ProtocolKind::kNoFilter, 0x9705a8d83e8beba0},
      {ProtocolKind::kZtNrp, 0x43873b8c31c20a98},
      {ProtocolKind::kFtNrp, 0xad5e83f4e2c46214},
      {ProtocolKind::kRtp, 0x6aee704daeadff8e},
      {ProtocolKind::kZtRp, 0xb7c30a25643aab30},
      {ProtocolKind::kFtRp, 0xe747387ae4415953},
  };
  for (const auto& c : kCases) {
    ExpectGolden(WalkConfig(c.protocol), c.digest,
                 std::string(ProtocolKindName(c.protocol)));
  }
}

TEST(GoldenDigestTest, DelayingNets) {
  const struct {
    ProtocolKind protocol;
    const char* net;
    std::uint64_t digest;
  } kCases[] = {
      {ProtocolKind::kFtNrp, "latency:2:1", 0x048597397fb4fb72},
      {ProtocolKind::kFtNrp, "batch:5", 0xbc56357150b8e9e8},
      {ProtocolKind::kZtNrp, "bw:2", 0x066946f1f6e6106d},
  };
  for (const auto& c : kCases) {
    SystemConfig config = WalkConfig(c.protocol);
    config.net = Net(c.net);
    ExpectGolden(config, c.digest,
                 std::string(ProtocolKindName(c.protocol)) + " " + c.net);
  }
}

TEST(GoldenDigestTest, FaultyNets) {
  const struct {
    ProtocolKind protocol;
    const char* net;
    std::uint64_t digest;
  } kCases[] = {
      {ProtocolKind::kFtRp,
       "latency:4:2+loss:0.05:3+reorder:2+partition:300.5,500.5",
       0xee187407f83534c1},
      {ProtocolKind::kRtp, "loss:0.3", 0xe389cdfdc793cb88},
  };
  for (const auto& c : kCases) {
    SystemConfig config = WalkConfig(c.protocol);
    config.net = Net(c.net);
    ExpectGolden(config, c.digest,
                 std::string(ProtocolKindName(c.protocol)) + " " + c.net);
  }
}

/// A churn schedule over a lossy, delayed net, run once in memory and once
/// spilling retired queries to an 8-page pool: spilling moves where closed
/// books are parked, never what they say, so both runs share one constant.
TEST(GoldenDigestTest, ChurnWithAndWithoutSpill) {
  const std::uint64_t kDigest = 0x88ce7f430c1eab60;
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 400;
  walk.seed = 7;
  config.source = SourceSpec::Walk(walk);
  config.duration = 800;
  config.seed = 7;
  config.oracle.sample_interval = 60;
  config.net = Net("latency:2+loss:0.05");
  ChurnSpec spec;
  spec.arrival_rate = 0.2;
  spec.mean_lifetime = 150;
  spec.seed = 7;
  auto queries = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  config.queries = std::move(queries).value();

  ExpectGolden(config, kDigest, "churn in memory");
  config.spill.dir = ::testing::TempDir();
  config.spill.buffer_pages = 8;
  ExpectGolden(config, kDigest, "churn spilled");
}

/// The schedule `asf_run --churn --churn-rate=0.2 --churn-lifetime=150
/// --streams=400 --duration=800 --seed=5` builds from its defaults: ZT-NRP
/// ranges with shapes drawn at random, ε = 0, an instant net, no oracle.
TEST(GoldenDigestTest, AsfRunChurnDefaults) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 400;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 800;
  config.seed = 5;
  ChurnSpec spec;
  spec.arrival_rate = 0.2;
  spec.mean_lifetime = 150;
  spec.seed = 5;
  ChurnMixEntry entry;
  entry.deployment.protocol = ProtocolKind::kZtNrp;
  entry.deployment.fraction = {0, 0};
  entry.deployment.rank_r = 0;
  entry.deployment.query.k = 1;
  spec.mix.push_back(entry);
  auto queries = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  config.queries = std::move(queries).value();
  ExpectGolden(config, 0x35d9cf2590e7b317, "asf_run churn");
}

/// A rectangle query in the plane: FT-NRP over 300 plane walks' signed
/// distances to [300, 700]², queried over (−∞, 0]. A custom source serves
/// one run, so each run builds its own walk.
TEST(GoldenDigestTest, FtNrpOnPlaneSignedDistance) {
  SystemConfig config;
  config.query = QuerySpec::Range(-kInf, 0);
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.2, 0.2};
  config.duration = 600;
  config.seed = 7;
  config.oracle.sample_interval = 60;
  const auto run = [](SystemConfig c) {
    PlaneWalkConfig walk_config;
    walk_config.num_streams = 300;
    walk_config.seed = 7;
    PlaneWalkStreams walk(walk_config);
    DistanceStreamSet signed_distances(&walk, Rect(300, 700, 300, 700));
    c.source = SourceSpec::Custom(&signed_distances);
    return RunSystem(c);
  };
  ExpectGolden(config, run, 0x24f6d7a4b500c8a4, "ft-nrp plane");
}

TEST(GoldenDigestTest, FtNrpOnSyntheticTcpTrace) {
  TcpSynthConfig synth;
  synth.num_subnets = 100;
  synth.total_connections = 5000;
  synth.duration = 1000;
  auto trace = GenerateTcpTrace(synth);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  SystemConfig config;
  config.source = SourceSpec::Trace(&trace.value());
  config.duration = 1000;
  config.oracle.sample_interval = 100;
  config.protocol = ProtocolKind::kFtNrp;
  config.query = QuerySpec::Range(400, 600);
  config.fraction = {0.2, 0.2};
  ExpectGolden(config, 0xae654fba0902bb06, "ft-nrp trace");
}

}  // namespace
}  // namespace asf
