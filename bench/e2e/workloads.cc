#include "workloads.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "engine/churn.h"
#include "engine/sweep_runner.h"
#include "trace/tcp_synth.h"

namespace asf {
namespace e2e {

namespace {

/// Every input seed derives from the one benchmark seed.
enum SeedStream : std::uint64_t { kWalkSeed = 1, kSynthSeed, kRunSeed };

RandomWalkConfig Walk(std::size_t streams, std::uint64_t seed) {
  RandomWalkConfig walk;
  walk.num_streams = streams;
  walk.seed = MixSeed(seed, kWalkSeed);
  return walk;
}

std::string Failure(const std::string& what, const Status& status) {
  return what + ": " + status.ToString();
}

/// fig10_grid: the paper's Fig. 10 surface — FT-NRP over ε+, ε− ∈
/// {0, ..., 0.5}² on a synthetic TCP trace, one serial RunSweepAll per
/// cell.
void SetupFig10(Workload& w, std::uint64_t seed, double scale) {
  TcpSynthConfig synth;
  synth.num_subnets = 800;
  synth.total_connections = static_cast<std::uint64_t>(500000 * scale);
  synth.duration = 25000 * scale;
  synth.seed = MixSeed(seed, kSynthSeed);
  w.trace.reset();  // never hold two traces at once (peak RSS)
  const auto start = std::chrono::steady_clock::now();
  auto trace = GenerateTcpTrace(synth);
  w.synth_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASF_CHECK_MSG(trace.ok(), trace.status().ToString().c_str());
  w.trace = std::make_unique<TraceData>(std::move(trace).value());

  SystemConfig base;
  base.source = SourceSpec::Trace(w.trace.get());
  base.query = QuerySpec::Range(400, 600);
  base.protocol = ProtocolKind::kFtNrp;
  base.duration = synth.duration;
  base.seed = MixSeed(seed, kRunSeed);
  base.oracle.sample_interval = 1000;

  const double eps[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  w.grid.clear();
  for (double plus : eps) {
    for (double minus : eps) {
      SystemConfig config = base;
      config.fraction = {plus, minus};
      w.grid.push_back(config);
    }
  }
  w.traced_run = 2 * 6 + 2;  // ε = (0.2, 0.2)
}

/// multiq_q256: 256 static overlapping FT-NRP ranges — the population at
/// which auto dispatch switches to the interval index.
void SetupMultiq(Workload& w, std::uint64_t seed, double scale) {
  MultiQueryConfig config;
  config.source = SourceSpec::Walk(Walk(800, seed));
  config.duration = 12000 * scale;
  config.seed = MixSeed(seed, kRunSeed);
  config.oracle.sample_interval = 2000;
  for (int i = 0; i < 256; ++i) {
    QueryDeployment dep;
    dep.name = "q" + std::to_string(i);
    dep.query = QuerySpec::Range(100 + 3 * i, 200 + 3 * i);
    dep.protocol = ProtocolKind::kFtNrp;
    dep.fraction = {0.2, 0.2};
    config.queries.push_back(dep);
  }
  w.multi = std::move(config);
}

/// churn_spill: Poisson query arrivals with exponential lifetimes, retired
/// state spilled through a 64-page LRU buffer pool. The schedule is part
/// of the workload's definition, like multiq_q256's ranges: its peak live
/// population (246) sits just under the auto-dispatch crossover (256), and
/// schedules drawn from other seeds cross it or not, which swung the
/// index share of dispatches from 0 to 36% and the run time by ±15% from
/// seed to seed. The benchmark seed drives the stream values.
void SetupChurn(Workload& w, std::uint64_t seed, double scale,
                const std::string& scratch) {
  MultiQueryConfig config;
  config.source = SourceSpec::Walk(Walk(800, seed));
  config.duration = 2000 * scale;
  config.seed = MixSeed(seed, kRunSeed);
  config.oracle.sample_interval = 100;
  config.spill.dir = scratch;
  config.spill.buffer_pages = 64;
  config.spill.replacement = storage::ReplacementPolicy::kLru;

  ChurnSpec spec;
  spec.arrival_rate = 1.0;
  spec.mean_lifetime = 250;
  spec.seed = 71;
  auto deployments = ExpandChurn(spec, config.duration);
  ASF_CHECK_MSG(deployments.ok(), deployments.status().ToString().c_str());
  config.queries = std::move(deployments).value();
  w.multi = std::move(config);
}

/// knn_lossy: one FT-RP k-NN query behind a delayed, lossy network.
void SetupKnn(Workload& w, std::uint64_t seed, double scale) {
  MultiQueryConfig config;
  config.source = SourceSpec::Walk(Walk(1000, seed));
  config.duration = 8000 * scale;
  config.seed = MixSeed(seed, kRunSeed);
  config.oracle.sample_interval = 100;
  auto net = ParseNetSpec("latency:2+loss:0.05");
  ASF_CHECK_MSG(net.ok(), net.status().ToString().c_str());
  config.net = *net;

  QueryDeployment dep;
  dep.name = "knn";
  dep.query = QuerySpec::Knn(20, 500);
  dep.protocol = ProtocolKind::kFtRp;
  dep.fraction = {0.2, 0.2};
  config.queries = {dep};
  w.multi = std::move(config);
}

}  // namespace

void Digest::Add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  Add(bits);
}

std::string CheckOutputs(bool zero_violations, std::uint64_t oracle_checks,
                         std::uint64_t oracle_violations,
                         const NetStats& net) {
  if (oracle_checks == 0) return "the oracle never judged the answer";
  if (zero_violations && oracle_violations != 0) {
    return std::to_string(oracle_violations) + " oracle violations";
  }
  const std::uint64_t accounted =
      net.delivered_crossings + net.dropped_loss + net.dropped_partition +
      net.dropped_retired + net.in_flight_crossings_at_end;
  if (net.crossings != accounted) {
    return "message conservation broken: " + std::to_string(net.crossings) +
           " crossings, " + std::to_string(accounted) + " accounted for";
  }
  return "";
}

RunOutcome Workload::Run(std::size_t i) const {
  RunOutcome out;
  Digest digest;
  if (!grid.empty()) {
    SweepOptions serial;
    serial.num_threads = 1;
    auto results = RunSweepAll({grid[i]}, serial);
    if (!results.ok()) {
      out.failure = Failure("RunSweepAll", results.status());
      return out;
    }
    const RunResult& r = results->front();
    AddQueryDigest(digest, r);
    digest.Add(r.updates_generated);
    out.updates = r.updates_generated;
    out.maint_msgs = r.MaintenanceMessages();
    out.failure = CheckOutputs(expect_zero_violations, r.oracle_checks,
                               r.oracle_violations, r.net);
  } else {
    auto result = RunMultiQuerySystem(multi);
    if (!result.ok()) {
      out.failure = Failure("RunMultiQuerySystem", result.status());
      return out;
    }
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
    for (const auto& q : result->queries) {
      AddQueryDigest(digest, q);
      checks += q.oracle_checks;
      violations += q.oracle_violations;
    }
    digest.Add(result->updates_generated);
    out.updates = result->updates_generated;
    out.maint_msgs = result->LogicalMaintenanceTotal();
    out.failure = CheckOutputs(expect_zero_violations, checks, violations,
                               result->net);
  }
  out.digest = digest.value();
  return out;
}

CoreInputs Workload::TracedInputs() const {
  // The same mapping RunSystem / RunMultiQuerySystem perform; the digest
  // check (traced == untraced) catches any drift between the two.
  CoreInputs in;
  SimulationCore::Options& o = in.options;
  if (!grid.empty()) {
    const SystemConfig& c = grid[traced_run];
    o.source = c.source;
    o.duration = c.duration;
    o.query_start = c.query_start;
    o.seed = c.seed;
    o.oracle = c.oracle;
    o.net = c.net;
    o.dispatch = c.dispatch;
    o.spill = c.spill;
    QueryDeployment dep;
    dep.query = c.query;
    dep.protocol = c.protocol;
    dep.rank_r = c.rank_r;
    dep.fraction = c.fraction;
    dep.ft = c.ft;
    dep.broadcast = c.broadcast_counts_as_one
                        ? BroadcastCostModel::kSingleMessage
                        : BroadcastCostModel::kPerRecipient;
    in.queries = {dep};
  } else {
    o.source = multi.source;
    o.duration = multi.duration;
    o.query_start = multi.query_start;
    o.seed = multi.seed;
    o.oracle = multi.oracle;
    o.net = multi.net;
    o.dispatch = multi.dispatch;
    o.spill = multi.spill;
    in.queries = multi.queries;
  }
  return in;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fig10_grid", "multiq_q256", "churn_spill", "knn_lossy"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, double scale,
                                       const std::string& scratch) {
  auto w = std::make_unique<Workload>();
  if (name == "fig10_grid") {
    w->setup = [=](Workload& self) { SetupFig10(self, seed, scale); };
  } else if (name == "multiq_q256") {
    w->setup = [=](Workload& self) { SetupMultiq(self, seed, scale); };
  } else if (name == "churn_spill") {
    w->setup = [=](Workload& self) {
      SetupChurn(self, seed, scale, scratch);
    };
  } else if (name == "knn_lossy") {
    w->expect_zero_violations = false;
    w->setup = [=](Workload& self) { SetupKnn(self, seed, scale); };
  } else {
    return nullptr;
  }
  return w;
}

}  // namespace e2e
}  // namespace asf
