#include "engine/sweep_runner.h"

#include <gtest/gtest.h>

#include <string>

#include "result_equality.h"
#include "stream/random_walk.h"

namespace asf {
namespace {

SystemConfig WalkConfig(std::uint64_t seed, std::size_t num_streams = 150) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = num_streams;
  walk.seed = seed;
  config.source = SourceSpec::Walk(walk);
  config.query = QuerySpec::Range(400, 600);
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.3, 0.3};
  config.duration = 300;
  config.seed = seed;
  return config;
}

/// A mixed 12-config batch: several protocols, tolerances and seeds.
std::vector<SystemConfig> MixedBatch() {
  std::vector<SystemConfig> configs;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    SystemConfig ft = WalkConfig(seed);
    configs.push_back(ft);

    SystemConfig zt = WalkConfig(seed);
    zt.protocol = ProtocolKind::kZtNrp;
    zt.fraction = {};
    configs.push_back(zt);

    SystemConfig rtp = WalkConfig(seed);
    rtp.query = QuerySpec::Knn(5, 500);
    rtp.protocol = ProtocolKind::kRtp;
    rtp.rank_r = 3;
    rtp.fraction = {};
    configs.push_back(rtp);

    SystemConfig ftrp = WalkConfig(seed);
    ftrp.query = QuerySpec::Knn(10, 500);
    ftrp.protocol = ProtocolKind::kFtRp;
    configs.push_back(ftrp);
  }
  return configs;
}

TEST(SweepRunnerTest, ParallelMatchesSerialByteForByte) {
  const std::vector<SystemConfig> configs = MixedBatch();
  ASSERT_GE(configs.size(), 8u);

  SweepOptions serial;
  serial.num_threads = 1;
  SweepOptions parallel;
  parallel.num_threads = 8;

  auto a = RunSweepAll(configs, serial);
  auto b = RunSweepAll(configs, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), configs.size());
  ASSERT_EQ(b->size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ExpectSameResult((*a)[i], (*b)[i], "config " + std::to_string(i));
  }
}

TEST(SweepRunnerTest, ResultsComeBackInSubmissionOrder) {
  // Distinguishable runs: the no-filter protocol's init cost is exactly 2n
  // probe messages, so each result identifies its config by population.
  std::vector<SystemConfig> configs;
  for (std::size_t n : {50, 150, 100, 250, 200, 400, 300, 350}) {
    SystemConfig config = WalkConfig(/*seed=*/9, n);
    config.protocol = ProtocolKind::kNoFilter;
    config.fraction = {};
    configs.push_back(config);
  }
  auto results = RunSweepAll(configs, {});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ((*results)[i].messages.InitTotal(),
              2 * configs[i].source.walk.num_streams)
        << "result " << i << " out of order";
  }
}

TEST(SweepRunnerTest, InvalidConfigReportsErrorInItsSlot) {
  std::vector<SystemConfig> configs{WalkConfig(1), WalkConfig(2)};
  configs[1].duration = 0;  // invalid
  const auto results = RunSweep(configs, {});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());

  // The collapsing variant surfaces the error.
  EXPECT_FALSE(RunSweepAll(configs, {}).ok());
}

TEST(SweepRunnerTest, RejectsCustomStreamSources) {
  RandomWalkConfig walk;
  walk.num_streams = 10;
  RandomWalkStreams streams(walk);
  SystemConfig config = WalkConfig(1);
  config.source = SourceSpec::Custom(&streams);
  const auto results = RunSweep({config}, {});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
}

TEST(SweepRunnerTest, EmptySweepIsEmpty) {
  EXPECT_TRUE(RunSweep({}, {}).empty());
  auto all = RunSweepAll({}, {});
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

TEST(SweepRunnerTest, ExpandSeedsIsDeterministicAndDistinct) {
  const std::vector<SystemConfig> configs = ExpandSeeds(WalkConfig(10), 4);
  ASSERT_EQ(configs.size(), 4u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(configs[i].source.walk.seed, 10 + i);
    EXPECT_EQ(configs[i].seed, 10 + i);
  }
  auto results = RunSweepAll(configs, {});
  ASSERT_TRUE(results.ok());
  // Different seeds must actually produce different runs.
  EXPECT_NE((*results)[0].updates_reported, (*results)[1].updates_reported);
}

}  // namespace
}  // namespace asf
