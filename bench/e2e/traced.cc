#include "traced.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "engine/protocol_factory.h"
#include "obs/hooks.h"
#include "obs/profiler.h"
#include "query/ranking.h"
#include "quantile.h"
#include "sim/scheduler.h"

namespace asf {
namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Keeps probe results observable so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// The stream source the traced run hands the engine through
/// SourceSpec::Custom. It forwards the inner source's updates unchanged
/// and times every kSampleEvery-th call into the update handler
/// (counter-based, so the sampled calls repeat exactly run to run).
class SampledStreams : public StreamSet {
 public:
  static constexpr std::uint64_t kSampleEvery = 64;

  explicit SampledStreams(std::unique_ptr<StreamSet> inner)
      : StreamSet(inner->size()), inner_(std::move(inner)) {
    for (StreamId id = 0; id < size(); ++id) {
      SetInitialValue(id, inner_->value(id));
    }
  }

  void Start(Scheduler* scheduler, SimTime horizon) override {
    inner_->set_update_handler([this](StreamId id, Value v, SimTime t) {
      if (++calls_ % kSampleEvery != 0) {
        ApplyUpdate(id, v, t);
        return;
      }
      const auto start = Clock::now();
      ApplyUpdate(id, v, t);
      sampled_seconds_ += Since(start);
    });
    inner_->Start(scheduler, horizon);
  }

  /// Handler calls: one per stream update, live queries or not.
  std::uint64_t calls() const { return calls_; }

  /// Mean seconds of one sampled call, timing overhead included.
  double SampleSeconds() const {
    return Ratio(sampled_seconds_, static_cast<double>(calls_ / kSampleEvery));
  }

 private:
  std::unique_ptr<StreamSet> inner_;
  std::uint64_t calls_ = 0;
  double sampled_seconds_ = 0;
};

/// Isolation probe of the stream layer: the source, wrapped exactly as in
/// the traced run, driving a private scheduler into a no-op handler
/// (median of three).
struct StreamFloor {
  double ns_per_update = 0;
  /// What a sampled call costs when the handler does nothing: the timing
  /// overhead the traced run subtracts from every sampled call.
  double sample_overhead_s = 0;
};

StreamFloor MeasureStreamFloor(const SourceSpec& source, SimTime horizon) {
  std::vector<double> ns;
  std::vector<double> overhead;
  for (int rep = 0; rep < 3; ++rep) {
    SampledStreams streams(MakeStreams(source));
    Scheduler scheduler;
    std::uint64_t sink = 0;
    streams.set_update_handler(
        [&sink](StreamId id, Value, SimTime) { sink += id; });
    const auto start = Clock::now();
    streams.Start(&scheduler, horizon);
    scheduler.RunUntil(horizon);
    const double seconds = Since(start);
    g_sink = sink;
    ns.push_back(Ratio(seconds * 1e9, static_cast<double>(streams.calls())));
    overhead.push_back(streams.SampleSeconds());
  }
  return {Median(ns), Median(overhead)};
}

/// One replica of the traced run and everything measured around it.
struct Replica {
  double setup_s = 0;   ///< stream construction, core constructor, AddQuery
  double run_s = 0;     ///< SimulationCore::Run
  double result_s = 0;  ///< the query_stats loop (faults spilled records in)
  double wall_s = 0;    ///< all three
  double handler_s = 0;
  std::uint64_t handler_calls = 0;
  std::vector<QueryRunStats> stats;
  std::vector<Value> final_values;
  std::uint64_t updates = 0;
  std::uint64_t physical_updates = 0;
  std::size_t peak_live = 0;
  NetStats net;
  DispatchStats dispatch;
  SpillTelemetry spill;
  obs::ProfileReport in_run;  ///< profiler phases through Run()
  obs::ProfileReport total;   ///< ... and through result assembly
  std::uint64_t digest = 0;
};

Replica RunReplica(const CoreInputs& in, obs::Profiler* profiler,
                   const StreamFloor& floor) {
  Replica r;
  const auto t_setup = Clock::now();
  SampledStreams streams(MakeStreams(in.options.source));
  SimulationCore::Options options = in.options;
  options.source = SourceSpec::Custom(&streams);
  options.obs.profiler = profiler;
  SimulationCore core(options);
  for (const QueryDeployment& dep : in.queries) core.AddQuery(dep);
  r.setup_s = Since(t_setup);

  const auto t_run = Clock::now();
  core.Run();
  r.run_s = Since(t_run);
  if (profiler != nullptr) r.in_run = profiler->Merged();

  const auto t_result = Clock::now();
  r.stats.reserve(core.num_queries());
  for (std::size_t i = 0; i < core.num_queries(); ++i) {
    r.stats.push_back(core.query_stats(i));
  }
  r.result_s = Since(t_result);
  r.wall_s = Since(t_setup);
  if (profiler != nullptr) r.total = profiler->Merged();

  r.handler_s =
      std::max(0.0, streams.SampleSeconds() - floor.sample_overhead_s) *
      static_cast<double>(streams.calls());
  r.handler_calls = streams.calls();
  r.final_values = streams.values();
  r.updates = core.updates_generated();
  r.physical_updates = core.physical_updates();
  r.peak_live = core.peak_live_queries();
  r.net = core.net_stats();
  r.dispatch = core.dispatch_stats();
  r.spill = core.spill_telemetry();
  Digest digest;
  for (const QueryRunStats& q : r.stats) AddQueryDigest(digest, q);
  digest.Add(r.updates);
  r.digest = digest.value();
  return r;
}

/// Isolation probe: seconds per oracle judgement of `dep` on the final
/// value snapshot, judging the true answer.
double OracleCheckSeconds(const QueryDeployment& dep,
                          const std::vector<Value>& values) {
  AnswerSet answer;
  if (dep.query.type == QuerySpec::Type::kRange) {
    const RangeQuery range = dep.query.MakeRange();
    for (StreamId id = 0; id < values.size(); ++id) {
      if (range.Matches(values[id])) answer.Insert(id);
    }
  } else {
    for (StreamId id : TopKIds(dep.query.MakeRank(), values, dep.query.k)) {
      answer.Insert(id);
    }
  }
  std::uint64_t calls = 0;
  std::uint64_t ok = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    ok += JudgeAnswer(dep.query, dep.protocol, dep.rank_r, dep.fraction,
                      values, answer)
              .ok;
    ++calls;
    elapsed = Since(start);
  } while (elapsed < 0.02 || calls < 16);
  g_sink = ok;
  return elapsed / static_cast<double>(calls);
}

}  // namespace

TracedRun RunTraced(const Workload& w, double untraced_s, double setup_s) {
  const CoreInputs in = w.TracedInputs();
  const StreamFloor floor =
      MeasureStreamFloor(in.options.source, in.options.duration);
  const Replica r = RunReplica(in, nullptr, floor);
  obs::Profiler profiler;
  const Replica p = RunReplica(in, &profiler, floor);

  TracedRun out;
  out.digest = r.digest;
  out.profiled_digest = p.digest;
  double checks = 0;
  double violations = 0;
  double logical = 0;
  double live_updates = 0;
  double probes = 0;
  double deploys = 0;
  double reports = 0;
  double reinits = 0;
  for (const QueryRunStats& q : r.stats) {
    checks += static_cast<double>(q.oracle_checks);
    violations += static_cast<double>(q.oracle_violations);
    logical += static_cast<double>(q.updates_reported);
    live_updates += static_cast<double>(q.answer_size.count());
    reinits += static_cast<double>(q.reinits);
    for (int i = 0; i < kNumMessagePhases; ++i) {
      const auto phase = static_cast<MessagePhase>(i);
      probes += static_cast<double>(
          q.messages.count(phase, MessageType::kProbeRequest) +
          q.messages.count(phase, MessageType::kRegionProbeRequest));
      deploys += static_cast<double>(
          q.messages.count(phase, MessageType::kFilterDeploy));
      reports += static_cast<double>(
          q.messages.count(phase, MessageType::kValueUpdate));
    }
  }
  out.failure = CheckOutputs(w.expect_zero_violations,
                             static_cast<std::uint64_t>(checks),
                             static_cast<std::uint64_t>(violations), r.net);

  const double floor_ns = floor.ns_per_update;
  const double check_s = OracleCheckSeconds(in.queries.front(), r.final_values);

  const double updates = static_cast<double>(r.updates);
  const double calls = static_cast<double>(r.handler_calls);
  const double dispatch_s = p.total.of(obs::Phase::kDispatch) +
                            p.total.of(obs::Phase::kIndexRebuild);
  const double flush_s = p.total.of(obs::Phase::kNetFlush);
  const double floor_s = floor_ns * 1e-9 * calls;
  const double oracle_s = checks * check_s;
  // Delayed deliveries run as their own scheduler events, outside the
  // update handler; instant ones run inside it and are counted there.
  const double net_outside_s = in.options.net.DelaysDelivery() ? flush_s : 0;
  const double spill_in_run_s = p.in_run.of(obs::Phase::kSpillIo);
  const double attributed = r.setup_s + r.handler_s + floor_s +
                            net_outside_s + oracle_s + spill_in_run_s +
                            r.result_s;
  const double wall = r.wall_s;
  out.breakdown = {
      {"engine set-up", "frac", Ratio(r.setup_s, wall)},
      {"update handler", "frac", Ratio(r.handler_s, wall)},
      {"stream + scheduler floor", "frac", Ratio(floor_s, wall)},
      {"delayed net delivery", "frac", Ratio(net_outside_s, wall)},
      {"oracle (estimated)", "frac", Ratio(oracle_s, wall)},
      {"spill I/O in run", "frac", Ratio(spill_in_run_s, wall)},
      {"result assembly", "frac", Ratio(r.result_s, wall)},
      {"unattributed", "frac", 1 - Ratio(attributed, wall)},
  };

  const NetStats& net = r.net;
  out.metrics = {
      {"engine.wall_s", "s", wall},
      {"engine.setup_s", "s", r.setup_s},
      {"engine.result_s", "s", r.result_s},
      {"engine.handler_ns_per_update", "ns", Ratio(r.handler_s * 1e9, calls)},
      {"engine.outside_handler_s", "s", r.run_s - r.handler_s},
      {"engine.unattributed_frac", "frac", 1 - Ratio(attributed, wall)},
      {"engine.physical_over_logical", "ratio",
       Ratio(static_cast<double>(r.physical_updates), logical)},
      {"stream.floor_ns_per_update", "ns", floor_ns},
      {"filter.dispatch_s", "s", dispatch_s},
      {"filter.dispatch_ns_per_update", "ns", Ratio(dispatch_s * 1e9, updates)},
      {"filter.index_rebuild_frac", "frac",
       Ratio(p.total.of(obs::Phase::kIndexRebuild), p.wall_s)},
      {"filter.index_rebuilds", "count",
       static_cast<double>(r.dispatch.index_rebuilds)},
      {"filter.fire_ratio", "ratio",
       Ratio(static_cast<double>(net.crossings), live_updates)},
      {"net.flush_s", "s", flush_s},
      {"net.wire_messages", "count",
       static_cast<double>(net.update_messages + net.deploy_messages +
                           net.control_rpcs)},
      {"net.delivered_frac", "frac",
       Ratio(static_cast<double>(net.delivered_crossings),
             static_cast<double>(net.crossings))},
      {"net.deploy_retx_frac", "frac",
       Ratio(static_cast<double>(net.deploy_retransmits),
             static_cast<double>(net.deploy_attempts))},
      {"net.probe_retx", "count", static_cast<double>(net.probe_retransmits)},
      {"net.staleness_mean", "sim_time", net.delay.mean()},
      {"protocol.probes", "count", probes},
      {"protocol.deploys", "count", deploys},
      {"protocol.reports", "count", reports},
      {"protocol.reinits", "count", reinits},
      {"tolerance.violations", "count", violations},
      {"tolerance.check_us", "us", check_s * 1e6},
      {"tolerance.est_s", "s", oracle_s},
      {"storage.spill_io_frac", "frac",
       Ratio(p.total.of(obs::Phase::kSpillIo), p.wall_s)},
      {"storage.file_bytes", "B", static_cast<double>(r.spill.file_bytes)},
      {"trace.synth_share", "frac", Ratio(w.synth_seconds, setup_s)},
      {"obs.profiler_overhead_frac", "frac", Ratio(p.wall_s, untraced_s) - 1},
      {"trace_overhead_frac", "frac", Ratio(wall, untraced_s) - 1},
  };
  out.context = {
      {"engine.queries_deployed", "count",
       static_cast<double>(in.queries.size())},
      {"engine.peak_live", "count", static_cast<double>(r.peak_live)},
      {"filter.index_dispatch_frac", "frac",
       Ratio(static_cast<double>(r.dispatch.index_dispatches),
             static_cast<double>(r.dispatch.index_dispatches +
                                 r.dispatch.scan_dispatches))},
      {"tolerance.checks", "count", checks},
      {"storage.records_spilled", "count",
       static_cast<double>(r.spill.records_spilled)},
      {"storage.pool_hit_rate", "frac", r.spill.PoolHitRate()},
  };
  return out;
}

}  // namespace e2e
}  // namespace asf
