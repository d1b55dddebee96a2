#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/interval.h"
#include "engine/multi_system.h"
#include "engine/system.h"
#include "net/fault_pipeline.h"
#include "net/network_model.h"
#include "result_equality.h"
#include "sim/scheduler.h"

/// \file
/// Fault injection and the disruption-tolerant control plane (DESIGN.md
/// §11): the composable `--net=` stage grammar, the zero-rate ≡ instant
/// contract, seed-determinism of the fault schedule, the crossing
/// conservation invariant, the deploy retransmission state machine
/// (timeout, duplicate suppression, supersession, backoff cap), probe
/// failover, bounded reordering, partition-reconnect reconciliation, and
/// staleness compensation.

namespace asf {
namespace {

// ---------------------------------------------------------------- parsing

TEST(NetFaultSpecTest, ParsesEveryStage) {
  auto loss = ParseNetSpec("loss:0.1");
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(loss->kind, NetConfig::Kind::kInstant);
  EXPECT_DOUBLE_EQ(loss->loss, 0.1);
  EXPECT_DOUBLE_EQ(loss->loss_burst, 1);
  EXPECT_TRUE(loss->HasFaults());
  EXPECT_TRUE(loss->DelaysDelivery());
  EXPECT_EQ(loss->ToString(), "loss:0.1");

  auto burst = ParseNetSpec("loss:0.1:4");
  ASSERT_TRUE(burst.ok());
  EXPECT_DOUBLE_EQ(burst->loss_burst, 4);
  EXPECT_EQ(burst->ToString(), "loss:0.1:4");

  auto reorder = ParseNetSpec("reorder:3");
  ASSERT_TRUE(reorder.ok());
  EXPECT_EQ(reorder->reorder, 3u);
  EXPECT_EQ(reorder->ToString(), "reorder:3");

  auto partition = ParseNetSpec("partition:100,200,350");
  ASSERT_TRUE(partition.ok());
  ASSERT_EQ(partition->partition.size(), 3u);
  EXPECT_DOUBLE_EQ(partition->partition[1], 200);
  EXPECT_EQ(partition->ToString(), "partition:100,200,350");

  auto composite =
      ParseNetSpec("latency:5:2+loss:0.05:3+reorder:2+partition:10,20"
                   "+rto:4:32+comp:1.5+norecon");
  ASSERT_TRUE(composite.ok());
  EXPECT_EQ(composite->kind, NetConfig::Kind::kFixedLatency);
  EXPECT_DOUBLE_EQ(composite->latency, 5);
  EXPECT_DOUBLE_EQ(composite->jitter, 2);
  EXPECT_DOUBLE_EQ(composite->loss, 0.05);
  EXPECT_DOUBLE_EQ(composite->loss_burst, 3);
  EXPECT_EQ(composite->reorder, 2u);
  EXPECT_DOUBLE_EQ(composite->rto, 4);
  EXPECT_DOUBLE_EQ(composite->rto_max, 32);
  EXPECT_DOUBLE_EQ(composite->comp, 1.5);
  EXPECT_FALSE(composite->reconcile);
  // Canonical round trip.
  EXPECT_EQ(composite->ToString(),
            "latency:5:2+loss:0.05:3+reorder:2+partition:10,20+rto:4:32"
            "+comp:1.5+norecon");
  auto again = ParseNetSpec(composite->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), composite->ToString());

  // Zero-rate stages parse and are recognized as fault-free.
  auto zero = ParseNetSpec("loss:0");
  ASSERT_TRUE(zero.ok());
  EXPECT_FALSE(zero->HasFaults());
  EXPECT_FALSE(zero->DelaysDelivery());
  auto zreorder = ParseNetSpec("reorder:0");
  ASSERT_TRUE(zreorder.ok());
  EXPECT_FALSE(zreorder->HasFaults());
  EXPECT_FALSE(zreorder->DelaysDelivery());

  // An explicit base composes with stages.
  auto batched = ParseNetSpec("batch:10+loss:0.2");
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched->kind, NetConfig::Kind::kBatched);
  EXPECT_DOUBLE_EQ(batched->delta, 10);
  EXPECT_DOUBLE_EQ(batched->loss, 0.2);
}

TEST(NetFaultSpecTest, RejectsMalformedStages) {
  // Out-of-range probabilities and burst lengths.
  EXPECT_FALSE(ParseNetSpec("loss:1.5").ok());
  EXPECT_FALSE(ParseNetSpec("loss:-0.1").ok());
  EXPECT_FALSE(ParseNetSpec("loss:abc").ok());
  EXPECT_FALSE(ParseNetSpec("loss:0.1:0.5").ok());  // burst < 1
  EXPECT_FALSE(ParseNetSpec("loss:").ok());
  // Gilbert-Elliott feasibility: burst b needs loss <= b/(b+1).
  EXPECT_FALSE(ParseNetSpec("loss:0.9:2").ok());
  // Reorder must be a bounded non-negative integer.
  EXPECT_FALSE(ParseNetSpec("reorder:-1").ok());
  EXPECT_FALSE(ParseNetSpec("reorder:1.5").ok());
  EXPECT_FALSE(ParseNetSpec("reorder:").ok());
  EXPECT_FALSE(ParseNetSpec("reorder:2:3").ok());
  // Partition boundaries must be strictly increasing and well-formed.
  EXPECT_FALSE(ParseNetSpec("partition:").ok());
  EXPECT_FALSE(ParseNetSpec("partition:5,3").ok());
  EXPECT_FALSE(ParseNetSpec("partition:5,5").ok());
  EXPECT_FALSE(ParseNetSpec("partition:-1,5").ok());
  EXPECT_FALSE(ParseNetSpec("partition:1,2,").ok());
  // Rto must be positive; the cap must cover the initial timeout.
  EXPECT_FALSE(ParseNetSpec("rto:0").ok());
  EXPECT_FALSE(ParseNetSpec("rto:-2").ok());
  EXPECT_FALSE(ParseNetSpec("rto:8:4").ok());
  // Compensation must be non-negative.
  EXPECT_FALSE(ParseNetSpec("comp:-1").ok());
  // Structural errors: duplicate stages, second base, empty stage,
  // parameters where none belong, unknown stages.
  EXPECT_FALSE(ParseNetSpec("loss:0.1+loss:0.2").ok());
  EXPECT_FALSE(ParseNetSpec("reorder:1+reorder:2").ok());
  EXPECT_FALSE(ParseNetSpec("latency:1+batch:2").ok());
  EXPECT_FALSE(ParseNetSpec("instant+instant").ok());
  EXPECT_FALSE(ParseNetSpec("loss:0.1++reorder:2").ok());
  EXPECT_FALSE(ParseNetSpec("norecon:1").ok());
  EXPECT_FALSE(ParseNetSpec("norecon+norecon").ok());
  EXPECT_FALSE(ParseNetSpec("warp:0.1").ok());
  EXPECT_FALSE(ParseNetSpec("latency:1+warp").ok());
  // The diagnostic names the offending stage.
  auto bad = ParseNetSpec("latency:2+warp:1");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("warp"), std::string::npos);
}

// ------------------------------------------------ shared run scaffolding

SystemConfig BaseConfig(ProtocolKind protocol, const QuerySpec& query,
                        double eps, std::size_t rank_r) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 23;
  config.source = SourceSpec::Walk(walk);
  config.query = query;
  config.protocol = protocol;
  config.fraction = {eps, eps};
  config.rank_r = rank_r;
  config.duration = 400;
  config.seed = 23;
  config.oracle.sample_interval = 25;
  return config;
}

struct ProtoCase {
  const char* label;
  ProtocolKind protocol;
  QuerySpec query;
  double eps;
  std::size_t rank_r;
};

const ProtoCase kAllProtocols[] = {
    {"no-filter", ProtocolKind::kNoFilter, QuerySpec::Range(400, 600), 0, 0},
    {"zt-nrp", ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0},
    {"ft-nrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.3, 0},
    {"rtp", ProtocolKind::kRtp, QuerySpec::Knn(5, 500), 0, 3},
    {"zt-rp", ProtocolKind::kZtRp, QuerySpec::Knn(5, 500), 0, 0},
    {"ft-rp", ProtocolKind::kFtRp, QuerySpec::Knn(10, 500), 0.3, 0},
};

/// The crossing conservation invariant (DESIGN.md §11): every crossing the
/// sources offered is delivered, dropped by a named cause, or still in
/// flight at the horizon — nothing vanishes.
void ExpectConservation(const NetStats& net, const char* label) {
  EXPECT_EQ(net.crossings,
            net.delivered_crossings + net.dropped_loss +
                net.dropped_partition + net.dropped_retired +
                net.in_flight_crossings_at_end)
      << label << ": crossings=" << net.crossings
      << " delivered=" << net.delivered_crossings
      << " loss=" << net.dropped_loss
      << " partition=" << net.dropped_partition
      << " retired=" << net.dropped_retired
      << " in_flight=" << net.in_flight_crossings_at_end;
}

// ------------------------------------------- zero-rate faults ≡ instant

/// `loss:0`, `reorder:0` and their composites with zero-delay bases are
/// observably fault-free: they must take the inline delivery path and
/// reproduce the instant run byte-identically for every protocol.
TEST(NetFaultEquivalenceTest, ZeroRateFaultConfigsMatchInstant) {
  const char* kSpecs[] = {"loss:0", "reorder:0", "latency:0+loss:0+reorder:0"};
  for (const ProtoCase& c : kAllProtocols) {
    SystemConfig config = BaseConfig(c.protocol, c.query, c.eps, c.rank_r);
    auto instant = RunSystem(config);
    ASSERT_TRUE(instant.ok()) << c.label;
    for (const char* spec : kSpecs) {
      auto net = ParseNetSpec(spec);
      ASSERT_TRUE(net.ok()) << spec;
      ASSERT_FALSE(net->DelaysDelivery()) << spec;
      config.net = *net;
      auto run = RunSystem(config);
      ASSERT_TRUE(run.ok()) << c.label << " " << spec;
      ExpectSameResult(*instant, *run, std::string(c.label) + " " + spec);
    }
  }
}

// ------------------------------------------------ determinism under seed

/// The fault schedule is a pure function of (config, seed): a composite
/// loss+reorder+partition run replays every observable — including every
/// fault counter — exactly.
TEST(NetFaultDeterminismTest, CompositeFaultsReplayExactly) {
  auto net = ParseNetSpec("latency:3:2+loss:0.08:3+reorder:2+partition:120,240");
  ASSERT_TRUE(net.ok());
  SystemConfig config =
      BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
  config.net = *net;
  auto first = RunSystem(config);
  auto second = RunSystem(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second, "fault-replay");
  // The faults actually engaged.
  EXPECT_GT(first->net.dropped_loss, 0u);
  EXPECT_GT(first->net.dropped_partition, 0u);
  ExpectConservation(first->net, "fault-replay");
}

/// Every crossing of a lossy, delayed, batched, reordered or partitioned
/// run is delivered, dropped by a named cause, or still in flight.
TEST(NetFaultConservationTest, CompositeFaultsConserveCrossings) {
  const char* kSpecs[] = {
      "latency:4+loss:0.05:3",
      "batch:15+loss:0.1",
      "latency:2:3+loss:0.05+reorder:2+partition:150,260",
      "latency:4:2+loss:0.05:3+reorder:2+partition:300.5,500.5",
  };
  for (const char* spec : kSpecs) {
    auto net = ParseNetSpec(spec);
    ASSERT_TRUE(net.ok()) << spec;
    SystemConfig config =
        BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
    config.net = *net;
    auto run = RunSystem(config);
    ASSERT_TRUE(run.ok()) << spec;
    ExpectConservation(run->net, spec);
  }
}

/// The loss points of bench/net_loss, pinned exactly: how many crossings
/// the wire delivered, lost and still held at the horizon is simulation
/// currency, so the counts repeat for the seed on any machine. The grid
/// base is 400 walks seeded 17 for 2000 time units, the oracle judging
/// every 20, behind `latency:2`.
TEST(NetFaultConservationTest, NetLossPointsArePinned) {
  const struct {
    const char* label;
    ProtocolKind protocol;
    double eps;
    const char* net;
    std::uint64_t crossings;
    std::uint64_t delivered;
    std::uint64_t dropped_loss;
    std::uint64_t in_flight;
  } kCases[] = {
      {"ft-nrp", ProtocolKind::kFtNrp, 0.2, "latency:2+loss:0.05", 1270,
       1193, 76, 1},
      {"zt-nrp", ProtocolKind::kZtNrp, 0, "latency:2+loss:0.1", 1412, 1268,
       143, 1},
      {"no-filter", ProtocolKind::kNoFilter, 0, "latency:2+loss:0.2", 40047,
       32005, 7999, 43},
  };
  for (const auto& c : kCases) {
    SystemConfig config =
        BaseConfig(c.protocol, QuerySpec::Range(400, 600), c.eps, 0);
    RandomWalkConfig walk;
    walk.num_streams = 400;
    walk.seed = 17;
    config.source = SourceSpec::Walk(walk);
    config.duration = 2000;
    config.seed = 17;
    config.oracle.sample_interval = 20;
    auto net = ParseNetSpec(c.net);
    ASSERT_TRUE(net.ok()) << c.net;
    config.net = *net;
    auto run = RunSystem(config);
    ASSERT_TRUE(run.ok()) << c.label << " " << c.net;
    const std::string label = std::string(c.label) + " " + c.net;
    EXPECT_EQ(run->net.crossings, c.crossings) << label;
    EXPECT_EQ(run->net.delivered_crossings, c.delivered) << label;
    EXPECT_EQ(run->net.dropped_loss, c.dropped_loss) << label;
    EXPECT_EQ(run->net.in_flight_crossings_at_end, c.in_flight) << label;
    ExpectConservation(run->net, label.c_str());
  }
}

// ------------------------------- every protocol terminates under faults

/// Sustained burst loss with retransmitting deploys: all six protocols
/// complete the run, keep judging, and satisfy the conservation invariant.
TEST(NetFaultProtocolTest, AllProtocolsTerminateUnderBurstLoss) {
  auto net = ParseNetSpec("latency:2+loss:0.1:3+rto:8");
  ASSERT_TRUE(net.ok());
  for (const ProtoCase& c : kAllProtocols) {
    SystemConfig config = BaseConfig(c.protocol, c.query, c.eps, c.rank_r);
    config.net = *net;
    auto run = RunSystem(config);
    ASSERT_TRUE(run.ok()) << c.label;
    EXPECT_GT(run->oracle_checks, 0u) << c.label;
    EXPECT_LE(run->oracle_violations, run->oracle_checks) << c.label;
    ExpectConservation(run->net, c.label);
  }
}

/// Crossings lost to retirement under loss: a query retiring with updates
/// in flight closes its books; the invariant still balances with both the
/// retired and the loss buckets populated.
TEST(NetFaultLifecycleTest, RetirementAndLossShareTheInvariant) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 120;
  walk.seed = 31;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 31;
  auto net = ParseNetSpec("latency:25+loss:0.15");
  ASSERT_TRUE(net.ok());
  config.net = *net;

  QueryDeployment young;
  young.name = "young";
  young.query = QuerySpec::Range(300, 700);
  young.protocol = ProtocolKind::kZtNrp;
  young.start = 0;
  young.end = 200;
  QueryDeployment old;
  old.name = "survivor";
  old.query = QuerySpec::Range(350, 650);
  old.protocol = ProtocolKind::kZtNrp;
  config.queries = {young, old};

  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->net.dropped_retired, 0u);
  EXPECT_GT(result->net.dropped_loss, 0u);
  ExpectConservation(result->net, "retire+loss");
}

// --------------------------------------- deploy state machine, scripted

struct DeployArrival {
  std::size_t slot;
  StreamId id;
  FilterConstraint constraint;
  SimTime at;
};

struct FaultRig {
  Scheduler scheduler;
  std::unique_ptr<NetworkModel> net;
  std::vector<DeployArrival> deploys;

  explicit FaultRig(const NetConfig& config, std::uint64_t seed = 7) {
    net = MakeNetworkModel(config, seed);
    net->Bind(
        &scheduler,
        [](StreamId, const NetworkModel::Payload*, std::size_t, SimTime) {},
        [this](std::size_t slot, StreamId id, const FilterConstraint& c,
               SimTime at) {
          deploys.push_back({slot, id, c, at});
        });
  }
};

/// Scripted timeout + duplicate + lost-ack scenario: deploy at t=0 under
/// latency:2 with the link down in [1,3) and rto:5. The install arrives at
/// t=2 and is applied, but its ack evaluates against the down window and is
/// lost; the timer fires at t=5, the retransmit arrives at t=7 as a
/// duplicate (suppressed, re-acked), and the ack lands at t=9.
TEST(NetDeployStateMachineTest, TimeoutRetransmitsAndSuppressesDuplicate) {
  auto net = ParseNetSpec("latency:2+partition:1,3+rto:5+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);

  rig.net->SendDeploy(/*slot=*/4, /*id=*/9,
                      FilterConstraint::Range(Interval(400, 600)), 0);
  rig.scheduler.RunUntil(20);
  rig.net->Finalize(20);

  ASSERT_EQ(rig.deploys.size(), 1u);  // the duplicate was suppressed
  EXPECT_EQ(rig.deploys[0].slot, 4u);
  EXPECT_EQ(rig.deploys[0].id, 9u);
  EXPECT_DOUBLE_EQ(rig.deploys[0].at, 2.0);

  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.deploy_messages, 1u);
  EXPECT_EQ(stats.deploy_attempts, 2u);
  EXPECT_EQ(stats.deploy_retransmits, 1u);
  EXPECT_EQ(stats.deploy_dropped, 1u);  // the lost ack
  EXPECT_EQ(stats.deploy_dup_suppressed, 1u);
  EXPECT_EQ(stats.deploy_acks, 1u);
  EXPECT_EQ(stats.deploy_stale_acks, 0u);
  EXPECT_EQ(stats.deploy_unacked_at_end, 0u);
  EXPECT_EQ(stats.in_flight_at_end, 0u);
}

/// Supersession: a second install on the same (query, stream) channel
/// bumps the sequence number before the first ack returns; the stale ack
/// is ignored and only the newest install's ack settles the channel.
TEST(NetDeployStateMachineTest, SupersededDeployIgnoresStaleAck) {
  // The far-away partition window never opens in this script; it only
  // makes the config faulty so the pipeline (and its ack machinery) runs.
  auto net = ParseNetSpec("latency:2+partition:900,901+rto:10+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);

  const FilterConstraint a = FilterConstraint::Range(Interval(400, 600));
  const FilterConstraint b = FilterConstraint::Range(Interval(450, 550));
  rig.net->SendDeploy(/*slot=*/1, /*id=*/3, a, 0);
  rig.scheduler.RunUntil(1);
  rig.net->SendDeploy(/*slot=*/1, /*id=*/3, b, 1);
  rig.scheduler.RunUntil(30);
  rig.net->Finalize(30);

  ASSERT_EQ(rig.deploys.size(), 2u);
  EXPECT_TRUE(rig.deploys[0].constraint == a);
  EXPECT_TRUE(rig.deploys[1].constraint == b);
  EXPECT_DOUBLE_EQ(rig.deploys[0].at, 2.0);
  EXPECT_DOUBLE_EQ(rig.deploys[1].at, 3.0);

  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.deploy_attempts, 2u);
  EXPECT_EQ(stats.deploy_retransmits, 0u);
  EXPECT_EQ(stats.deploy_acks, 1u);        // only B's ack counts
  EXPECT_EQ(stats.deploy_stale_acks, 1u);  // A's ack arrived superseded
  EXPECT_EQ(stats.deploy_unacked_at_end, 0u);
}

/// Backoff caps: with rto:5:20 inside a never-healing partition the
/// retransmit schedule is 5, 15, 35, 55, 75, 95 — seven attempts by t=100.
/// Uncapped doubling (5, 15, 35, 75, 155) would only reach four.
TEST(NetDeployStateMachineTest, BackoffIsCappedAtRtoMax) {
  auto net = ParseNetSpec("partition:0,1000+rto:5:20+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);

  rig.net->SendDeploy(/*slot=*/0, /*id=*/0,
                      FilterConstraint::Range(Interval(100, 200)), 0);
  rig.scheduler.RunUntil(100);
  rig.net->Finalize(100);

  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.deploy_attempts, 7u);
  EXPECT_EQ(stats.deploy_retransmits, 6u);
  EXPECT_EQ(stats.deploy_dropped, 7u);  // every copy hit the partition
  EXPECT_EQ(stats.deploy_acks, 0u);
  EXPECT_EQ(stats.deploy_unacked_at_end, 1u);
  EXPECT_EQ(rig.deploys.size(), 0u);
  EXPECT_EQ(stats.deploy_messages, 0u);
}

/// Deploy and ack copies still on the wire at the horizon count as in
/// flight, and their channels as un-acked. Under latency:2 the install
/// sent at t=7 is applied at t=9 and its ack is due at t=11; the install
/// sent at t=9 is due at t=11. At a horizon of 10 one ack and one install
/// are in transit; neither draw of this seed's 5% loss drops them.
TEST(NetDeployStateMachineTest, CopiesInTransitAtHorizonCountInFlight) {
  auto net = ParseNetSpec("latency:2+loss:0.05");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);
  const FilterConstraint c = FilterConstraint::Range(Interval(400, 600));

  rig.scheduler.RunUntil(7);
  rig.net->SendDeploy(/*slot=*/0, /*id=*/1, c, 7);
  rig.scheduler.RunUntil(9);
  rig.net->SendDeploy(/*slot=*/1, /*id=*/2, c, 9);
  rig.scheduler.RunUntil(10);
  rig.net->Finalize(10);

  ASSERT_EQ(rig.deploys.size(), 1u);
  EXPECT_EQ(rig.deploys[0].slot, 0u);
  EXPECT_DOUBLE_EQ(rig.deploys[0].at, 9.0);
  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.deploy_attempts, 2u);
  EXPECT_EQ(stats.deploy_dropped, 0u);
  EXPECT_EQ(stats.deploy_acks, 0u);
  EXPECT_EQ(stats.deploy_unacked_at_end, 2u);
  EXPECT_EQ(stats.in_flight_at_end, 2u);  // slot 0's ack, slot 1's install
  EXPECT_EQ(stats.in_flight_crossings_at_end, 0u);
}

// ----------------------------------------------------- probe resilience

/// A partitioned link fails the probe immediately; a loss:1 link exhausts
/// the bounded retransmissions. Both report failover so the server serves
/// its cached value.
TEST(NetProbeTest, PartitionAndTotalLossFailOver) {
  auto down = ParseNetSpec("partition:0,1000+norecon");
  ASSERT_TRUE(down.ok());
  FaultRig part(*down);
  EXPECT_FALSE(part.net->ControlRpc(/*id=*/3, /*now=*/50));
  EXPECT_EQ(part.net->stats().control_rpcs, 1u);
  EXPECT_EQ(part.net->stats().probe_failovers, 1u);
  EXPECT_EQ(part.net->stats().probe_retransmits, 0u);

  auto lossy = ParseNetSpec("loss:1");
  ASSERT_TRUE(lossy.ok());
  FaultRig total(*lossy);
  EXPECT_FALSE(total.net->ControlRpc(/*id=*/3, /*now=*/50));
  EXPECT_EQ(total.net->stats().control_rpcs, 1u);
  EXPECT_EQ(total.net->stats().probe_failovers, 1u);
  EXPECT_EQ(total.net->stats().probe_retransmits, 7u);  // 8 attempts

  // A clean link always succeeds and counts no retransmissions.
  auto clean = ParseNetSpec("latency:2+partition:900,901");
  ASSERT_TRUE(clean.ok());
  FaultRig ok(*clean);
  EXPECT_TRUE(ok.net->ControlRpc(/*id=*/3, /*now=*/50));
  EXPECT_EQ(ok.net->stats().probe_failovers, 0u);
}

// -------------------------------------------------- bounded reordering

/// reorder:k holds each surviving message behind at most k later
/// survivors: arrivals are a permutation with displacement <= k, and
/// whatever is still held at the horizon is counted in flight.
TEST(NetReorderTest, DisplacementIsBoundedByK) {
  auto net = ParseNetSpec("reorder:2");
  ASSERT_TRUE(net.ok());

  Scheduler scheduler;
  auto model = MakeNetworkModel(*net, /*seed=*/11);
  std::vector<std::uint64_t> arrived_seq;
  model->Bind(
      &scheduler,
      [&](StreamId id, const NetworkModel::Payload* payloads,
          std::size_t count, SimTime) {
        ASSERT_EQ(id, 5u);
        ASSERT_EQ(count, 1u);
        arrived_seq.push_back(payloads[0].seq);
      },
      [](std::size_t, StreamId, const FilterConstraint&, SimTime) {});

  const std::vector<std::size_t> slots = {0};
  const int kSends = 50;
  for (int i = 0; i < kSends; ++i) {
    scheduler.RunUntil(static_cast<SimTime>(i));
    model->SendUpdate(/*id=*/5, static_cast<Value>(i), slots,
                      scheduler.now());
  }
  scheduler.RunUntil(1000);
  model->Finalize(1000);

  const NetStats& stats = model->stats();
  EXPECT_EQ(arrived_seq.size() + stats.in_flight_at_end,
            static_cast<std::size_t>(kSends));
  EXPECT_EQ(stats.in_flight_crossings_at_end, stats.in_flight_at_end);
  // Each arrival was overtaken by at most k=2 later sends.
  std::uint64_t inversions = 0;
  for (std::size_t i = 0; i < arrived_seq.size(); ++i) {
    std::uint64_t overtakers = 0;
    for (std::size_t j = 0; j < i; ++j) {
      if (arrived_seq[j] > arrived_seq[i]) ++overtakers;
    }
    inversions += overtakers;
    EXPECT_LE(overtakers, 2u) << "arrival " << i;
  }
  // The stage actually reorders under this seed.
  EXPECT_GT(inversions, 0u);
  // No duplicates: seqs are distinct.
  std::vector<std::uint64_t> sorted = arrived_seq;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

/// The in-flight ledger covers held messages: under reorder:2 on one link
/// carrying two query slots, InFlight(slot) after every send is that
/// slot's crossings sent minus its payloads arrived, and at the horizon
/// the wire messages and crossings still held are what Finalize reports.
TEST(NetReorderTest, InFlightCountsHeldMessagesPerSlot) {
  auto net = ParseNetSpec("reorder:2");
  ASSERT_TRUE(net.ok());

  Scheduler scheduler;
  auto model = MakeNetworkModel(*net, /*seed=*/11);
  std::uint64_t sent[2] = {0, 0};
  std::uint64_t arrived[2] = {0, 0};
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_arrived = 0;
  model->Bind(
      &scheduler,
      [&](StreamId, const NetworkModel::Payload* payloads, std::size_t count,
          SimTime) {
        ++messages_arrived;
        for (std::size_t i = 0; i < count; ++i) ++arrived[payloads[i].slot];
      },
      [](std::size_t, StreamId, const FilterConstraint&, SimTime) {});

  // Each send crosses slot 0, slot 1 or both, in turn.
  const std::vector<std::size_t> kSlots[] = {{0}, {1}, {0, 1}};
  std::uint64_t max_held = 0;
  for (int i = 0; i < 60; ++i) {
    scheduler.RunUntil(static_cast<SimTime>(i));
    const std::vector<std::size_t>& slots = kSlots[i % 3];
    model->SendUpdate(/*id=*/5, static_cast<Value>(i), slots,
                      scheduler.now());
    ++messages_sent;
    for (const std::size_t slot : slots) ++sent[slot];
    for (std::size_t slot = 0; slot < 2; ++slot) {
      EXPECT_EQ(model->InFlight(slot), sent[slot] - arrived[slot])
          << "send " << i << " slot " << slot;
      max_held = std::max(max_held, sent[slot] - arrived[slot]);
    }
  }
  scheduler.RunUntil(1000);
  model->Finalize(1000);

  const NetStats& stats = model->stats();
  EXPECT_GT(max_held, 0u);  // the stage actually held messages
  EXPECT_EQ(stats.in_flight_at_end, messages_sent - messages_arrived);
  EXPECT_EQ(stats.in_flight_crossings_at_end,
            sent[0] + sent[1] - arrived[0] - arrived[1]);
  EXPECT_GT(stats.in_flight_at_end, 0u);
}

/// End to end, reordering without loss changes delivery order but loses
/// nothing: stale payloads are suppressed at the server (counted), and the
/// conservation invariant holds.
TEST(NetReorderTest, EndToEndSuppressionIsAccounted) {
  auto net = ParseNetSpec("latency:1+reorder:3");
  ASSERT_TRUE(net.ok());
  SystemConfig config =
      BaseConfig(ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0);
  config.net = *net;
  auto run = RunSystem(config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->net.dropped_loss, 0u);
  EXPECT_GT(run->net.suppressed_stale, 0u);
  ExpectConservation(run->net, "reorder-e2e");
}

// ------------------------------------------- reconnect reconciliation

/// Partition up-edges trigger the summary-vector exchange: with
/// reconciliation every source reports once per up-edge; `norecon`
/// suppresses the exchange entirely. Both runs terminate.
TEST(NetReconcileTest, UpEdgeExchangesRunUnlessDisabled) {
  SystemConfig config =
      BaseConfig(ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0);
  auto with = ParseNetSpec("latency:2+partition:150,300");
  ASSERT_TRUE(with.ok());
  config.net = *with;
  auto reconciled = RunSystem(config);
  ASSERT_TRUE(reconciled.ok());
  // One up-edge (t=300) x 200 streams.
  EXPECT_EQ(reconciled->net.reconcile_exchanges, 200u);
  ExpectConservation(reconciled->net, "reconcile");

  auto without = ParseNetSpec("latency:2+partition:150,300+norecon");
  ASSERT_TRUE(without.ok());
  config.net = *without;
  auto bare = RunSystem(config);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->net.reconcile_exchanges, 0u);
  EXPECT_EQ(bare->net.reconcile_deploys, 0u);
  ExpectConservation(bare->net, "norecon");
}

/// The up-edge replays every still-unacked install in ascending
/// (slot, id) order, whatever order the deploys were issued in — the
/// deploy channel table's iteration order.
TEST(NetReconcileTest, UpEdgeReplaysUnackedInstallsInSlotIdOrder) {
  auto net = ParseNetSpec("latency:2+partition:0,50");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);
  rig.net->StartRun(/*horizon=*/100);

  const FilterConstraint c = FilterConstraint::Range(Interval(400, 600));
  const std::pair<std::size_t, StreamId> kIssued[] = {
      {2, 5}, {0, 7}, {2, 1}, {1, 3}};
  for (const auto& [slot, id] : kIssued) rig.net->SendDeploy(slot, id, c, 0);
  rig.scheduler.RunUntil(100);
  rig.net->Finalize(100);

  // Every copy sent inside the window was lost; the four replays arrive
  // one latency after the up-edge, in channel order.
  const std::pair<std::size_t, StreamId> kReplayed[] = {
      {0, 7}, {1, 3}, {2, 1}, {2, 5}};
  ASSERT_EQ(rig.deploys.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.deploys[i].slot, kReplayed[i].first) << i;
    EXPECT_EQ(rig.deploys[i].id, kReplayed[i].second) << i;
    EXPECT_DOUBLE_EQ(rig.deploys[i].at, 52.0) << i;
  }
  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.reconcile_deploys, 4u);
  EXPECT_EQ(stats.deploy_unacked_at_end, 0u);
  EXPECT_EQ(stats.in_flight_at_end, 0u);
}

// ------------------------------------------------ staleness compensation

TEST(NetCompensationTest, ShrinksFiniteBoundsAndCollapsesCrossedBands) {
  const FilterConstraint range =
      FilterConstraint::Range(Interval(400, 600));
  const FilterConstraint shrunk = CompensateConstraint(range, 10);
  ASSERT_TRUE(shrunk.has_filter());
  EXPECT_DOUBLE_EQ(shrunk.interval().lo(), 410);
  EXPECT_DOUBLE_EQ(shrunk.interval().hi(), 590);

  // Margins that cross collapse to the original midpoint.
  const FilterConstraint collapsed = CompensateConstraint(range, 150);
  ASSERT_TRUE(collapsed.has_filter());
  EXPECT_DOUBLE_EQ(collapsed.interval().lo(), 500);
  EXPECT_DOUBLE_EQ(collapsed.interval().hi(), 500);

  // Infinite bounds stay put; only finite ones move.
  const FilterConstraint half =
      FilterConstraint::Range(Interval(-kInf, 600));
  const FilterConstraint half_shrunk = CompensateConstraint(half, 25);
  EXPECT_DOUBLE_EQ(half_shrunk.interval().lo(), -kInf);
  EXPECT_DOUBLE_EQ(half_shrunk.interval().hi(), 575);

  // Pass-through forms are untouched.
  EXPECT_TRUE(CompensateConstraint(FilterConstraint::NoFilter(), 10) ==
              FilterConstraint::NoFilter());
  EXPECT_TRUE(CompensateConstraint(FilterConstraint::FalsePositive(), 10) ==
              FilterConstraint::FalsePositive());
  EXPECT_TRUE(CompensateConstraint(FilterConstraint::FalseNegative(), 10) ==
              FilterConstraint::FalseNegative());
  // Zero margin is the identity.
  EXPECT_TRUE(CompensateConstraint(range, 0) == range);
}

/// comp composes with delay in the engine: the run completes and the
/// deterministic replay contract still holds.
TEST(NetCompensationTest, CompensatedRunsAreDeterministic) {
  auto net = ParseNetSpec("latency:5:2+comp:10");
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(net->DelaysDelivery());
  SystemConfig config =
      BaseConfig(ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0);
  config.net = *net;
  auto first = RunSystem(config);
  auto second = RunSystem(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second, "comp-replay");
}

// ------------------------------------------------------- adaptive RTO

TEST(RttEstimatorTest, FollowsRfc6298) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());

  // First sample: srtt = R, rttvar = R/2, RTO = 3R.
  est.AddSample(10);
  ASSERT_TRUE(est.has_sample());
  EXPECT_DOUBLE_EQ(est.srtt(), 10);
  EXPECT_DOUBLE_EQ(est.rttvar(), 5);
  EXPECT_DOUBLE_EQ(est.Rto(1.0, 1000), 30);

  // Steady identical samples: srtt stays, rttvar decays by 3/4 — the
  // timeout converges down toward srtt.
  est.AddSample(10);
  EXPECT_DOUBLE_EQ(est.srtt(), 10);
  EXPECT_DOUBLE_EQ(est.rttvar(), 3.75);
  EXPECT_DOUBLE_EQ(est.Rto(1.0, 1000), 25);

  // A deviating sample moves both estimates with gains 1/8 and 1/4.
  est.AddSample(18);
  EXPECT_DOUBLE_EQ(est.srtt(), 11);  // 0.875*10 + 0.125*18
  EXPECT_DOUBLE_EQ(est.rttvar(), 0.75 * 3.75 + 0.25 * 8);

  // Clamps apply at both ends.
  RttEstimator tiny;
  tiny.AddSample(0);
  EXPECT_DOUBLE_EQ(tiny.Rto(1.0, 1000), 1.0);
  RttEstimator huge;
  huge.AddSample(500);
  EXPECT_DOUBLE_EQ(huge.Rto(1.0, 100), 100);
}

TEST(NetAdaptiveRtoTest, ParsesAdaptiveAndFixedForms) {
  // Adaptive is the default: no rto stage means rto_adaptive on.
  auto plain = ParseNetSpec("loss:0.1");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->rto_adaptive);
  EXPECT_DOUBLE_EQ(plain->rto, 0);

  // Explicit adaptive with no cap canonicalizes away (it IS the default).
  auto adaptive = ParseNetSpec("latency:5+rto:adaptive");
  ASSERT_TRUE(adaptive.ok());
  EXPECT_TRUE(adaptive->rto_adaptive);
  EXPECT_EQ(adaptive->ToString(), "latency:5");

  // An explicit cap keeps a stage and round-trips.
  auto capped = ParseNetSpec("latency:5+rto:adaptive:160");
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(capped->rto_adaptive);
  EXPECT_DOUBLE_EQ(capped->rto_max, 160);
  EXPECT_EQ(capped->ToString(), "latency:5+rto:adaptive:160");
  auto again = ParseNetSpec(capped->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), capped->ToString());

  // rto:fixed pins the legacy auto-initial schedule and round-trips.
  auto fixed = ParseNetSpec("latency:5+rto:fixed");
  ASSERT_TRUE(fixed.ok());
  EXPECT_FALSE(fixed->rto_adaptive);
  EXPECT_DOUBLE_EQ(fixed->rto, 0);
  EXPECT_EQ(fixed->ToString(), "latency:5+rto:fixed");
  auto fixed_cap = ParseNetSpec("rto:fixed:40");
  ASSERT_TRUE(fixed_cap.ok());
  EXPECT_FALSE(fixed_cap->rto_adaptive);
  EXPECT_DOUBLE_EQ(fixed_cap->rto_max, 40);
  EXPECT_EQ(fixed_cap->ToString(), "rto:fixed:40");

  // A numeric timeout always wins over the adaptive flag.
  auto numeric = ParseNetSpec("rto:4:32");
  ASSERT_TRUE(numeric.ok());
  EXPECT_DOUBLE_EQ(numeric->rto, 4);

  // Malformed forms are rejected.
  EXPECT_FALSE(ParseNetSpec("rto:adaptive:x").ok());
  EXPECT_FALSE(ParseNetSpec("rto:bogus").ok());
  EXPECT_FALSE(ParseNetSpec("rto:adaptive:1:2").ok());
}

/// Warm link, then an outage: five clean deploy/ack exchanges (RTT = 2x
/// latency = 10 each) train the link's estimator, so the retransmit timer
/// for a copy lost at t=100 fires at the adaptive base
/// srtt + 4*rttvar = 10 + 4*(5 * 0.75^4) — earlier than the conservative
/// auto initial 4*latency = 20 that `rto:fixed` keeps.
TEST(NetAdaptiveRtoTest, TrainedLinkRetransmitsAtAdaptiveBase) {
  const double kAdaptiveBase = 10 + 4 * (5 * 0.75 * 0.75 * 0.75 * 0.75);
  struct Variant {
    const char* spec;
    double base;  // backoff base in effect at the t=100 timeout
  };
  const Variant kVariants[] = {
      {"latency:5+partition:100,103+norecon", kAdaptiveBase},
      {"latency:5+partition:100,103+norecon+rto:fixed", 20.0},
  };
  for (const Variant& v : kVariants) {
    auto net = ParseNetSpec(v.spec);
    ASSERT_TRUE(net.ok()) << v.spec;
    FaultRig rig(*net);
    const FilterConstraint c = FilterConstraint::Range(Interval(400, 600));
    // Five priming exchanges on link id=3, one per channel (the estimator
    // is per link, shared across query slots).
    for (std::size_t k = 0; k < 5; ++k) {
      rig.scheduler.RunUntil(static_cast<SimTime>(20 * k));
      rig.net->SendDeploy(/*slot=*/k, /*id=*/3, c, rig.scheduler.now());
    }
    rig.scheduler.RunUntil(100);
    // This copy hits the down window [100,103) and is dropped; the
    // retransmit goes out one backoff base later and arrives after the
    // one-way latency.
    rig.net->SendDeploy(/*slot=*/9, /*id=*/3, c, 100);
    rig.scheduler.RunUntil(200);
    rig.net->Finalize(200);

    ASSERT_EQ(rig.deploys.size(), 6u) << v.spec;
    EXPECT_DOUBLE_EQ(rig.deploys.back().at, 100 + v.base + 5) << v.spec;
    EXPECT_EQ(rig.net->stats().deploy_retransmits, 1u) << v.spec;
    EXPECT_EQ(rig.net->stats().deploy_unacked_at_end, 0u) << v.spec;
  }
}

/// Karn's rule: an exchange that needed a retransmit yields no RTT sample
/// (its ack is ambiguous), so a later timeout on the same link still uses
/// the conservative auto initial base, not a bogus estimate.
TEST(NetAdaptiveRtoTest, RetransmittedExchangesAreNotSampled) {
  auto net = ParseNetSpec("latency:5+partition:0,8,40,48+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);
  const FilterConstraint c = FilterConstraint::Range(Interval(400, 600));

  // First install: the t=0 copy hits [0,8) and is dropped; the timeout
  // fires at the auto initial 4*latency = 20, the retransmit arrives at
  // 25 and its ack settles the channel — but the exchange was ambiguous,
  // so no sample is recorded.
  rig.net->SendDeploy(/*slot=*/0, /*id=*/7, c, 0);
  rig.scheduler.RunUntil(40);
  // Second install: the t=40 copy hits [40,48). If the first exchange had
  // (wrongly) been sampled the timer base would differ from 20; unsampled,
  // the retransmit again goes out exactly 20 later and arrives at 65.
  rig.net->SendDeploy(/*slot=*/1, /*id=*/7, c, 40);
  rig.scheduler.RunUntil(200);
  rig.net->Finalize(200);

  ASSERT_EQ(rig.deploys.size(), 2u);
  EXPECT_DOUBLE_EQ(rig.deploys[0].at, 25.0);
  EXPECT_DOUBLE_EQ(rig.deploys[1].at, 65.0);
  EXPECT_EQ(rig.net->stats().deploy_retransmits, 2u);
}

/// Instant-base configs: a zero round trip clamps the adaptive base to
/// exactly the legacy auto initial max(1, 0) = 1, so adaptive and fixed
/// schedules coincide and whole runs stay byte-identical.
TEST(NetAdaptiveRtoTest, InstantBaseAdaptiveMatchesFixedExactly) {
  auto net = ParseNetSpec("loss:0.12:3");
  ASSERT_TRUE(net.ok());
  SystemConfig config =
      BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
  config.net = *net;
  auto adaptive = RunSystem(config);
  ASSERT_TRUE(adaptive.ok());
  config.net.rto_adaptive = false;
  auto fixed = RunSystem(config);
  ASSERT_TRUE(fixed.ok());
  ExpectSameResult(*adaptive, *fixed, "instant-adaptive");
  EXPECT_GT(adaptive->net.deploy_retransmits, 0u);
}

/// Adaptive timers run on the engine's event order, so a delayed lossy
/// composite with retransmissions actually happening replays exactly.
TEST(NetAdaptiveRtoTest, AdaptiveRtoRunsReplayExactly) {
  auto net = ParseNetSpec("latency:4+loss:0.1:2");
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE(net->rto_adaptive);
  SystemConfig config =
      BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
  config.net = *net;
  auto first = RunSystem(config);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->net.deploy_retransmits, 0u);
  auto replay = RunSystem(config);
  ASSERT_TRUE(replay.ok());
  ExpectSameResult(*first, *replay, "adaptive-replay");
  ExpectConservation(first->net, "adaptive");
}

}  // namespace
}  // namespace asf
