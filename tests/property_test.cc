#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.h"
#include "engine/churn.h"
#include "engine/multi_system.h"
#include "engine/system.h"
#include "geo/distance_streams.h"
#include "result_equality.h"
#include "trace/tcp_synth.h"

/// \file
/// Property tests: for randomized workloads across protocols, tolerances
/// and seeds, the oracle judges the answer after EVERY generated update and
/// must never observe a tolerance violation — this is the paper's
/// Correctness Requirement 1/2 checked empirically (DESIGN.md §7).

namespace asf {
namespace {

SystemConfig WalkBase(std::uint64_t seed) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 60;
  walk.sigma = 25;
  walk.seed = seed;
  config.source = SourceSpec::Walk(walk);
  config.duration = 400;
  config.seed = seed * 31 + 7;
  config.oracle.check_every_update = true;
  return config;
}

// ---------------------------------------------------------------------------
// Range-query protocols: NoFilter / ZT-NRP / FT-NRP never violate (eps+,
// eps-) at any instant.
// ---------------------------------------------------------------------------

using RangeParam =
    std::tuple<ProtocolKind, double /*eps*/, SelectionHeuristic,
               std::uint64_t /*seed*/>;

class RangeProtocolProperty : public ::testing::TestWithParam<RangeParam> {};

TEST_P(RangeProtocolProperty, ToleranceNeverViolated) {
  const auto [protocol, eps, heuristic, seed] = GetParam();
  SystemConfig config = WalkBase(seed);
  config.query = QuerySpec::Range(400, 600);
  config.protocol = protocol;
  config.fraction = {eps, eps};
  config.ft.heuristic = heuristic;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->oracle_checks, 200u);
  EXPECT_EQ(result->oracle_violations, 0u)
      << "maxF+=" << result->max_f_plus << " maxF-=" << result->max_f_minus;
  if (protocol != ProtocolKind::kFtNrp) {
    // Zero-tolerance protocols are exact at all times.
    EXPECT_EQ(result->max_f_plus, 0.0);
    EXPECT_EQ(result->max_f_minus, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZeroToleranceProtocols, RangeProtocolProperty,
    ::testing::Combine(::testing::Values(ProtocolKind::kNoFilter,
                                         ProtocolKind::kZtNrp),
                       ::testing::Values(0.0),
                       ::testing::Values(SelectionHeuristic::kBoundaryNearest),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

INSTANTIATE_TEST_SUITE_P(
    FtNrpSweep, RangeProtocolProperty,
    ::testing::Combine(::testing::Values(ProtocolKind::kFtNrp),
                       ::testing::Values(0.0, 0.1, 0.25, 0.5),
                       ::testing::Values(SelectionHeuristic::kBoundaryNearest,
                                         SelectionHeuristic::kRandom),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// FT-NRP with re-initialization enabled must stay correct too.
class FtNrpReinitProperty
    : public ::testing::TestWithParam<std::uint64_t /*seed*/> {};

TEST_P(FtNrpReinitProperty, ToleranceNeverViolated) {
  SystemConfig config = WalkBase(GetParam());
  config.query = QuerySpec::Range(400, 600);
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.3, 0.3};
  config.ft.reinit = ReinitPolicy::kWhenExhausted;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oracle_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtNrpReinitProperty,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// ---------------------------------------------------------------------------
// Rank-query protocols with rank tolerance: RTP answers are always exactly
// k streams, every member ranking <= k + r (Definition 1).
// ---------------------------------------------------------------------------

using RtpParam = std::tuple<std::size_t /*k*/, std::size_t /*r*/,
                            std::uint64_t /*seed*/>;

class RtpProperty : public ::testing::TestWithParam<RtpParam> {};

TEST_P(RtpProperty, Definition1NeverViolated) {
  const auto [k, r, seed] = GetParam();
  SystemConfig config = WalkBase(seed);
  config.query = QuerySpec::Knn(k, 500);
  config.protocol = ProtocolKind::kRtp;
  config.rank_r = r;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->oracle_checks, 200u);
  EXPECT_EQ(result->oracle_violations, 0u)
      << "k=" << k << " r=" << r << " worst=" << result->max_worst_rank;
  EXPECT_LE(result->max_worst_rank, k + r);
  // |A(t)| == k at every sampled instant.
  EXPECT_DOUBLE_EQ(result->answer_size.min(), static_cast<double>(k));
  EXPECT_DOUBLE_EQ(result->answer_size.max(), static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtpProperty,
    ::testing::Combine(::testing::Values(1u, 3u, 8u),
                       ::testing::Values(0u, 2u, 10u),
                       ::testing::Values(21u, 22u, 23u)));

// Top-k flavor of RTP (q = +inf transformation).
class RtpTopKProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtpTopKProperty, Definition1NeverViolated) {
  SystemConfig config = WalkBase(GetParam());
  config.query = QuerySpec::TopK(5);
  config.protocol = ProtocolKind::kRtp;
  config.rank_r = 3;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oracle_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtpTopKProperty,
                         ::testing::Values(31u, 32u, 33u, 34u));

// ---------------------------------------------------------------------------
// Rank-query protocols with fraction tolerance: ZT-RP is always exact;
// FT-RP keeps F+ <= eps+ and F- <= eps- at every instant.
// ---------------------------------------------------------------------------

class ZtRpProperty : public ::testing::TestWithParam<
                         std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(ZtRpProperty, AlwaysExact) {
  const auto [k, seed] = GetParam();
  SystemConfig config = WalkBase(seed);
  // ZT-RP probes everyone on every crossing: keep the run short.
  config.duration = 150;
  config.query = QuerySpec::Knn(k, 500);
  config.protocol = ProtocolKind::kZtRp;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oracle_violations, 0u)
      << "worst=" << result->max_worst_rank;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZtRpProperty,
    ::testing::Combine(::testing::Values(1u, 5u), ::testing::Values(41u, 42u)));

using FtRpParam = std::tuple<std::size_t /*k*/, double /*eps*/,
                             RhoPolicy, std::uint64_t /*seed*/>;

class FtRpProperty : public ::testing::TestWithParam<FtRpParam> {};

TEST_P(FtRpProperty, FractionToleranceNeverViolated) {
  const auto [k, eps, rho, seed] = GetParam();
  SystemConfig config = WalkBase(seed);
  config.query = QuerySpec::Knn(k, 500);
  config.protocol = ProtocolKind::kFtRp;
  config.fraction = {eps, eps};
  config.ft.rho = rho;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->oracle_checks, 200u);
  EXPECT_EQ(result->oracle_violations, 0u)
      << "k=" << k << " eps=" << eps << " maxF+=" << result->max_f_plus
      << " maxF-=" << result->max_f_minus;
  // Equations 8/10: |A| within [k/2, 2k] whenever eps < 0.5.
  EXPECT_GE(result->answer_size.min(), static_cast<double>(k) / 2.0);
  EXPECT_LE(result->answer_size.max(), 2.0 * static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FtRpProperty,
    ::testing::Combine(::testing::Values(5u, 15u),
                       ::testing::Values(0.1, 0.3, 0.45),
                       ::testing::Values(RhoPolicy::kBalanced),
                       ::testing::Values(51u, 52u, 53u)));

INSTANTIATE_TEST_SUITE_P(
    RhoPolicies, FtRpProperty,
    ::testing::Combine(::testing::Values(15u), ::testing::Values(0.4),
                       ::testing::Values(RhoPolicy::kFavorPositive,
                                         RhoPolicy::kFavorNegative),
                       ::testing::Values(61u, 62u)));

// ---------------------------------------------------------------------------
// Broadcast cost model: accounting changes, behaviour does not — the exact
// same answers (and oracle verdicts) with fewer counted messages.
// ---------------------------------------------------------------------------

class BroadcastModelProperty
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(BroadcastModelProperty, OnlyAccountingChanges) {
  SystemConfig config = WalkBase(77);
  if (GetParam() == ProtocolKind::kFtNrp) {
    config.query = QuerySpec::Range(400, 600);
  } else {
    config.query = QuerySpec::Knn(5, 500);
  }
  config.protocol = GetParam();
  config.fraction = {0.3, 0.3};
  config.rank_r = 3;
  auto per_recipient = RunSystem(config);
  config.broadcast_counts_as_one = true;
  auto broadcast = RunSystem(config);
  ASSERT_TRUE(per_recipient.ok());
  ASSERT_TRUE(broadcast.ok());
  // Identical dynamics...
  EXPECT_EQ(per_recipient->updates_generated, broadcast->updates_generated);
  EXPECT_EQ(per_recipient->updates_reported, broadcast->updates_reported);
  EXPECT_EQ(per_recipient->reinits, broadcast->reinits);
  EXPECT_EQ(per_recipient->oracle_violations, 0u);
  EXPECT_EQ(broadcast->oracle_violations, 0u);
  // ... with no more messages under the broadcast model.
  EXPECT_LE(broadcast->MaintenanceMessages(),
            per_recipient->MaintenanceMessages());
}

INSTANTIATE_TEST_SUITE_P(Protocols, BroadcastModelProperty,
                         ::testing::Values(ProtocolKind::kFtNrp,
                                           ProtocolKind::kRtp,
                                           ProtocolKind::kZtRp,
                                           ProtocolKind::kFtRp));

// ---------------------------------------------------------------------------
// Trace-driven property: the guarantees hold on the bursty, heavy-tailed
// TCP workload too, not just on the smooth random walk.
// ---------------------------------------------------------------------------

class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceProperty, ToleranceHoldsOnTcpWorkload) {
  TcpSynthConfig synth;
  synth.num_subnets = 60;
  synth.total_connections = 3000;
  synth.duration = 500;
  synth.seed = GetParam();
  auto trace = GenerateTcpTrace(synth);
  ASSERT_TRUE(trace.ok());

  for (ProtocolKind kind : {ProtocolKind::kFtNrp, ProtocolKind::kRtp,
                            ProtocolKind::kFtRp}) {
    SystemConfig config;
    config.source = SourceSpec::Trace(&trace.value());
    config.duration = synth.duration;
    config.protocol = kind;
    config.fraction = {0.3, 0.3};
    config.rank_r = 5;
    config.query = (kind == ProtocolKind::kFtNrp)
                       ? QuerySpec::Range(400, 600)
                       : QuerySpec::TopK(8);
    config.oracle.check_every_update = true;
    auto result = RunSystem(config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->oracle_violations, 0u)
        << ProtocolKindName(kind) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty,
                         ::testing::Values(71u, 72u, 73u));

// ---------------------------------------------------------------------------
// 2-D k-NN via the distance reduction: the 1-D guarantees carry over
// verbatim (paper §7).
// ---------------------------------------------------------------------------

using Plane2dParam = std::tuple<ProtocolKind, std::uint64_t /*seed*/>;

class PlaneKnnProperty : public ::testing::TestWithParam<Plane2dParam> {};

TEST_P(PlaneKnnProperty, ReducedKnnNeverViolates) {
  const auto [kind, seed] = GetParam();
  PlaneWalkConfig plane_config;
  plane_config.num_streams = 60;
  plane_config.sigma = 25;
  plane_config.seed = seed;
  PlaneWalkStreams plane(plane_config);
  DistanceStreamSet distances(&plane, {500, 500});

  SystemConfig config;
  config.source = SourceSpec::Custom(&distances);
  config.query = QuerySpec::BottomK(6);
  config.protocol = kind;
  config.fraction = {0.3, 0.3};
  config.rank_r = 4;
  config.duration = 300;
  config.oracle.check_every_update = true;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->oracle_checks, 200u);
  EXPECT_EQ(result->oracle_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlaneKnnProperty,
    ::testing::Combine(::testing::Values(ProtocolKind::kRtp,
                                         ProtocolKind::kZtRp,
                                         ProtocolKind::kFtRp),
                       ::testing::Values(81u, 82u)));

// ---------------------------------------------------------------------------
// Cross-cutting: a same-config run is bit-for-bit reproducible.
// ---------------------------------------------------------------------------

class DeterminismProperty
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DeterminismProperty, RunsAreReproducible) {
  SystemConfig config = WalkBase(99);
  config.oracle.check_every_update = false;
  switch (GetParam()) {
    case ProtocolKind::kZtNrp:
    case ProtocolKind::kFtNrp:
      config.query = QuerySpec::Range(400, 600);
      break;
    default:
      config.query = QuerySpec::Knn(5, 500);
      break;
  }
  config.protocol = GetParam();
  config.fraction = {0.3, 0.3};
  config.rank_r = 3;
  auto a = RunSystem(config);
  auto b = RunSystem(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->MaintenanceMessages(), b->MaintenanceMessages());
  EXPECT_EQ(a->reinits, b->reinits);
  EXPECT_DOUBLE_EQ(a->answer_size.mean(), b->answer_size.mean());
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DeterminismProperty,
    ::testing::Values(ProtocolKind::kZtNrp, ProtocolKind::kFtNrp,
                      ProtocolKind::kRtp, ProtocolKind::kZtRp,
                      ProtocolKind::kFtRp));

// ---------------------------------------------------------------------------
// Randomized configurations: a seeded generator draws short runs over
// protocol, query, tolerance, delivery (fault stages included), static or
// churned deployments, spill and dispatch. The engine itself checks
// crossing conservation at the end of every run; here every run must keep
// the oracle's invariants, and the scan and index runs of each draw must
// agree on every result field.
// ---------------------------------------------------------------------------

/// One query of the drawn protocol: ranges and rank queries shaped at
/// random over the walk's value space [0, 1000].
QueryDeployment DrawQuery(Rng& rng, ProtocolKind protocol) {
  QueryDeployment dep;
  dep.protocol = protocol;
  const bool range =
      protocol == ProtocolKind::kZtNrp || protocol == ProtocolKind::kFtNrp ||
      (protocol == ProtocolKind::kNoFilter && rng.Bernoulli(0.5));
  if (range) {
    const double lo = rng.Uniform(0, 800);
    dep.query = QuerySpec::Range(lo, lo + rng.Uniform(50, 300));
  } else {
    const auto k = static_cast<std::size_t>(rng.UniformInt(1, 10));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        dep.query = QuerySpec::Knn(k, rng.Uniform(0, 1000));
        break;
      case 1:
        dep.query = QuerySpec::TopK(k);
        break;
      default:
        dep.query = QuerySpec::BottomK(k);
        break;
    }
  }
  dep.fraction = {rng.Uniform(0, 0.5), rng.Uniform(0, 0.5)};
  dep.rank_r = static_cast<std::size_t>(rng.UniformInt(0, 5));
  return dep;
}

MultiQueryConfig DrawConfig(Rng& rng) {
  // The first four deliver inline (zero-rate stages): the oracle must
  // then see no violation at all.
  static const char* const kNets[] = {
      "instant",
      "latency:0",
      "batch:0",
      "loss:0+reorder:0",
      "latency:2",
      "latency:3:1",
      "batch:5",
      "bw:2",
      "loss:0.1",
      "latency:2+loss:0.05:3",
      "bw:1+loss:0.1",
      "latency:4:2+loss:0.05:3+reorder:2+partition:150.5,250.5",
      "latency:2+partition:100,200+norecon",
  };
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = static_cast<std::size_t>(rng.UniformInt(50, 300));
  walk.seed = static_cast<std::uint64_t>(rng.UniformInt(1, 1 << 20));
  config.source = SourceSpec::Walk(walk);
  config.duration = 400;
  config.query_start = rng.Bernoulli(0.25) ? 40 : 0;
  config.seed = walk.seed + 1;
  config.oracle.sample_interval = 10;
  const auto net = ParseNetSpec(
      kNets[rng.UniformInt(0, std::size(kNets) - 1)]);
  EXPECT_TRUE(net.ok());
  if (net.ok()) config.net = *net;
  if (rng.Bernoulli(0.5)) {
    config.spill.dir = ::testing::TempDir();
    config.spill.buffer_pages = static_cast<std::size_t>(rng.UniformInt(2, 8));
  }

  const auto protocol = static_cast<ProtocolKind>(rng.UniformInt(0, 5));
  const QueryDeployment shape = DrawQuery(rng, protocol);
  if (rng.Bernoulli(0.5)) {
    // Churned: arrivals of the drawn protocol and tolerance.
    ChurnSpec spec;
    spec.arrival_rate = rng.Uniform(0.03, 0.1);
    spec.mean_lifetime = rng.Uniform(30, 150);
    spec.window_start = config.query_start;
    spec.seed = walk.seed + 2;
    ChurnMixEntry entry;
    entry.deployment = shape;
    spec.mix.push_back(entry);
    auto queries = ExpandChurn(spec, config.duration);
    EXPECT_TRUE(queries.ok());
    if (queries.ok()) config.queries = std::move(queries).value();
  }
  if (config.queries.empty()) {
    // Static: one to three queries live for the whole run.
    const auto n = rng.UniformInt(1, 3);
    for (std::int64_t i = 0; i < n; ++i) {
      QueryDeployment dep = i == 0 ? shape : DrawQuery(rng, protocol);
      dep.name = "q";
      dep.name += std::to_string(i);
      config.queries.push_back(dep);
    }
  }
  return config;
}

TEST(RandomizedConfigProperty, InvariantsHoldOnSeededDraws) {
  Rng rng(20261017);
  for (int draw = 0; draw < 32; ++draw) {
    MultiQueryConfig config = DrawConfig(rng);
    const std::string label = "draw " + std::to_string(draw) + ": " +
                              std::string(ProtocolKindName(
                                  config.queries.front().protocol)) +
                              " x" + std::to_string(config.queries.size()) +
                              " net " + config.net.ToString() +
                              (config.spill.enabled() ? " spill" : "");
    ASSERT_TRUE(config.Validate().ok())
        << label << ": " << config.Validate().ToString();

    config.dispatch = DispatchPolicy::kScan;
    const auto scan = RunMultiQuerySystem(config);
    config.dispatch = DispatchPolicy::kIndex;
    const auto index = RunMultiQuerySystem(config);
    ASSERT_TRUE(scan.ok()) << label;
    ASSERT_TRUE(index.ok()) << label;

    const bool instant = !config.net.DelaysDelivery() &&
                         !config.net.HasFaults();
    for (const QueryRunStats& q : scan->queries) {
      EXPECT_LE(q.oracle_violations_in_flight, q.oracle_violations)
          << label << " " << q.name;
      if (instant) {
        EXPECT_EQ(q.oracle_violations, 0u) << label << " " << q.name;
      }
    }
    ExpectSameResult(*scan, *index, label);
  }
}

}  // namespace
}  // namespace asf
