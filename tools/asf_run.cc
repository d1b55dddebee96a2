/// asf_run — run one simulated deployment from the command line.
///
/// Examples:
///   asf_run --protocol=ft-nrp --streams=5000 --range=400:600
///           --eps-plus=0.2 --eps-minus=0.2 --duration=2000
///   asf_run --protocol=rtp --query=knn --k=10 --q=500 --r=5
///   asf_run --protocol=ft-rp --query=topk --k=20 --eps-plus=0.3
///           --replay=mytrace.csv
///   asf_run --churn --churn-rate=0.3 --churn-lifetime=250
///           --streams=2000 --duration=4000
///
/// Prints the run's report (obs/report.h): one row per query (live
/// window, messages, oracle audit), then the run totals. `--churn`
/// switches to an open query population (Poisson arrivals, exponential
/// lifetimes). `--help` lists every flag.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "engine/churn.h"
#include "engine/multi_system.h"
#include "filter/dispatch.h"
#include "metrics/bench_json.h"
#include "obs/hooks.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "run_flags.h"
#include "trace/trace_io.h"

namespace asf {
namespace {

constexpr const char* kHelp = R"(asf_run -- run one adaptive-stream-filter deployment

Workload (random walk by default):
  --streams=N             number of streams            [1000]
  --sigma=S               random-walk step stddev      [20]
  --interarrival=M        mean update inter-arrival    [20]
  --replay=FILE           replay a trace CSV instead (see asf_tracegen)
  --duration=T            simulated time units         [1000]
  --warmup=T              query start time             [0]
  --seed=N                seed                         [1]

Query:
  --query=range|knn|topk|bottomk                       [range]
  --range=LO:HI           range query bounds           [400:600]
  --k=K                   rank requirement             [10]
  --q=Q                   k-NN query point             [500]

Protocol & tolerance:
  --protocol=no-filter|zt-nrp|ft-nrp|rtp|zt-rp|ft-rp   [zt-nrp]
  --r=R                   RTP rank slack               [0]
  --eps-plus=E --eps-minus=E   fraction tolerances     [0]
  --heuristic=random|boundary-nearest                  [boundary-nearest]
  --reinit=never|when-exhausted                        [never]
  --rho=balanced|favor-positive|favor-negative         [balanced]

Auditing:
  --oracle-interval=T     sample the correctness oracle every T time units
  --oracle-every-update   audit after every update (slow)

Dispatch (DESIGN.md #10; every policy produces byte-identical results,
only wall time differs):
  --dispatch=scan         SIMD sweep of every live filter per update
  --dispatch=index        per-stream interval index (output-sensitive)
  --dispatch=auto         pick per update from the live filter count
                          (honors ASF_DISPATCH when set)        [auto]

Message delivery (DESIGN.md #9; instant reproduces the paper's
zero-delay semantics byte-identically, the others trade messages for
staleness):
  --net=instant           deliver inside the producing event   [instant]
  --net=latency:D[:J]     per-link delay D + uniform jitter [0,J)
  --net=batch:DELTA       sources coalesce crossings, flush every DELTA
  --net=bw:RATE           per-source uplink FIFO, RATE messages/unit

Fault stages (DESIGN.md #11; join with '+' after at most one base model,
e.g. --net=latency:4+loss:0.05:3+partition:200,400 — deterministic from
--seed; deploys retransmit with acks and capped exponential backoff,
probes retry then fail over to the server cache):
  loss:P[:B]              drop each wire message w.p. P; optional mean
                          burst length B (Gilbert-Elliott)
  reorder:K               hold messages behind up to K later survivors;
                          stale payloads are seqno-suppressed
  partition:T0,T1[,...]   links down in [T0,T1),[T2,T3),...; summary-
                          vector reconciliation at each up-edge
  rto:T[:MAX]             fixed deploy retransmit timeout; without it
                          the base adapts per link (RFC 6298 SRTT/
                          RTTVAR over acked round trips, Karn-filtered)
  rto:adaptive[:MAX]      adaptive (the default), with an explicit cap
  rto:fixed[:MAX]         legacy fixed base (auto: 4x latency)
  comp:G                  shrink installed filter bands by guard G
  norecon                 disable reconnect reconciliation

Churn mode (open query population; the query/protocol flags above form
the arrival mix — when --range / --q is given explicitly it pins every
arrival's query shape, otherwise shapes are drawn at random over the
value space):
  --churn                 deploy/retire queries mid-run instead of one
                          static query
  --churn-rate=R          mean query arrivals per time unit     [0.2]
  --churn-lifetime=L      mean query lifetime                   [250]
  --churn-max=N           cap on arrivals (0 = none)            [0]
  --churn-seed=N          churn schedule seed (default: --seed)

Out-of-core query state (DESIGN.md #13; byte-identical results for any
buffer size — spilling only changes where closed books are stored):
  --spill=DIR             spill retired-query state to a page file in
                          DIR through a buffer pool (default: keep all
                          state in RAM)
  --buffer-pages=N        buffer pool frames (>= 2)             [64]
  --replacement=lru|fifo  pool replacement policy               [lru]

Observability (DESIGN.md #14; inert on results — obs-on output is
byte-identical to obs-off after dropping the "obs "-prefixed lines):
  --trace=FILE            write the sim-time event trace to FILE as
                          Chrome trace_event JSON (chrome://tracing,
                          Perfetto; 1 time unit = 1 s)
  --trace-cats=CSV        categories to trace: update,crossing,wire,
                          lifecycle,index,spill, or "all"        [all]
  --profile               print the wall-clock phase profile and add a
                          "profile" block to --bench-json

Output:
  --bench-json=FILE       also write the run record as BENCH json, each
                          numeric field under its name (e.g. "queries[0].
                          messages.maintenance.update"), with provenance

Exit status: 0 after the run, 1 when a flag value or the configuration
is rejected, 2 for an unknown or malformed flag.
)";

/// Every flag RunFromFlags reads; anything else is rejected, so a typo
/// such as --eps_plus fails instead of running with the default.
const std::vector<std::string> kKnownFlags = {
    "help", "streams", "sigma", "interarrival", "replay", "duration",
    "warmup", "seed", "query", "range", "k", "q", "protocol", "r",
    "eps-plus", "eps-minus", "heuristic", "reinit", "rho",
    "oracle-interval", "oracle-every-update", "dispatch", "net", "churn",
    "churn-rate", "churn-lifetime", "churn-max", "churn-seed", "spill",
    "buffer-pages", "replacement", "trace", "trace-cats", "profile",
    "bench-json",
};

/// Parses --spill / --buffer-pages / --replacement into `spill`.
/// Validation proper (writable dir, minimum pool size) happens in
/// SpillConfig::Validate via SystemConfig/MultiQueryConfig.
Status ParseSpillFlags(const Flags& flags, SpillConfig* spill) {
  spill->dir = flags.GetString("spill", "");
  ASF_ASSIGN_OR_RETURN(const std::int64_t pages,
                       flags.GetInt("buffer-pages", 64));
  if (pages < 0) {
    return Status::InvalidArgument("--buffer-pages must be >= 0");
  }
  spill->buffer_pages = static_cast<std::size_t>(pages);
  if (flags.Has("replacement")) {
    const std::string name = flags.GetString("replacement");
    if (!storage::ParseReplacementPolicy(name, &spill->replacement)) {
      return Status::InvalidArgument("unknown --replacement: " + name);
    }
  }
  return Status::OK();
}

/// Owns the per-run observability objects behind --trace / --trace-cats
/// / --profile (DESIGN.md #14) and the epilogue they print. Every line
/// it prints carries the "obs " prefix, so obs-on output is obs-off
/// output plus those lines.
class ObsSession {
 public:
  static Result<ObsSession> FromFlags(const Flags& flags) {
    ObsSession session;
    if (flags.Has("trace")) {
      if (!ASF_OBS_TRACE_COMPILED) {
        return Status::InvalidArgument(
            "--trace requires a build with -DASF_OBS_TRACE=ON");
      }
      session.trace_path_ = flags.GetString("trace");
      ASF_ASSIGN_OR_RETURN(
          const std::uint32_t mask,
          obs::ParseCategoryMask(flags.GetString("trace-cats", "all")));
      session.tracer_ = std::make_unique<obs::Tracer>(mask);
    }
    ASF_ASSIGN_OR_RETURN(const bool profile, flags.GetBool("profile", false));
    if (profile) session.profiler_ = std::make_unique<obs::Profiler>();
    return session;
  }

  /// The non-owning bundle the engine receives via config.obs.
  obs::ObsHooks hooks() const {
    obs::ObsHooks hooks;
    hooks.tracer = tracer_.get();
    hooks.profiler = profiler_.get();
    return hooks;
  }

  /// Prints the "obs " epilogue, writes the trace, and attaches the
  /// profile block to `writer` (null when --bench-json is off). Call after
  /// the report.
  Status Finish(double wall_seconds, metrics::JsonWriter* writer) const {
    if (tracer_ != nullptr) {
      ASF_RETURN_IF_ERROR(tracer_->WriteChromeJson(trace_path_));
      std::printf("obs trace: %zu records (%llu dropped) -> %s\n",
                  tracer_->records().size(),
                  (unsigned long long)tracer_->dropped(), trace_path_.c_str());
    }
    if (profiler_ != nullptr) {
      std::printf("%s", profiler_->FormatTable(wall_seconds).c_str());
      if (writer != nullptr) {
        writer->AddBlock("profile", profiler_->ProfileJson());
      }
    }
    return Status::OK();
  }

 private:
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::string trace_path_;
};

/// The --churn schedule: the protocol/query/tolerance flags describe the
/// arrival mix; queries arrive Poisson and retire after exponential
/// lifetimes.
Result<ChurnSpec> ParseChurn(const Flags& flags, const SystemConfig& base) {
  ChurnSpec spec;
  ASF_ASSIGN_OR_RETURN(spec.arrival_rate,
                       flags.GetDouble("churn-rate", 0.2));
  ASF_ASSIGN_OR_RETURN(spec.mean_lifetime,
                       flags.GetDouble("churn-lifetime", 250));
  ASF_ASSIGN_OR_RETURN(const std::int64_t max_queries,
                       flags.GetInt("churn-max", 0));
  if (max_queries < 0) {
    return Status::InvalidArgument("--churn-max must be >= 0");
  }
  spec.max_queries = static_cast<std::size_t>(max_queries);
  ASF_ASSIGN_OR_RETURN(
      const std::int64_t churn_seed,
      flags.GetInt("churn-seed", static_cast<std::int64_t>(base.seed)));
  spec.seed = static_cast<std::uint64_t>(churn_seed);
  spec.window_start = base.query_start;

  ChurnMixEntry entry;
  entry.deployment = base.Deployment();
  // An explicitly given query geometry pins every arrival's shape;
  // otherwise shapes are drawn at random over the value space.
  entry.fixed_shape =
      (base.query.type == QuerySpec::Type::kRange && flags.Has("range")) ||
      (base.query.type == QuerySpec::Type::kRank && flags.Has("q"));
  spec.mix.push_back(entry);
  return spec;
}

Status RunFromFlags(const Flags& flags) {
  SystemConfig config;

  // Workload.
  std::optional<TraceData> trace;
  if (flags.Has("replay")) {
    ASF_ASSIGN_OR_RETURN(trace, ReadTraceCsv(flags.GetString("replay")));
    config.source = SourceSpec::Trace(&*trace);
  } else {
    ASF_ASSIGN_OR_RETURN(const RandomWalkConfig walk, ParseWalk(flags));
    config.source = SourceSpec::Walk(walk);
  }

  ASF_ASSIGN_OR_RETURN(config.duration, flags.GetDouble("duration", 1000));
  ASF_ASSIGN_OR_RETURN(config.query_start, flags.GetDouble("warmup", 0));
  ASF_ASSIGN_OR_RETURN(const std::int64_t seed, flags.GetInt("seed", 1));
  config.seed = static_cast<std::uint64_t>(seed);
  if (flags.Has("net")) {
    ASF_ASSIGN_OR_RETURN(config.net, ParseNetSpec(flags.GetString("net")));
  }
  if (flags.Has("dispatch")) {
    const std::string dispatch = flags.GetString("dispatch");
    if (!ParseDispatchPolicy(dispatch, &config.dispatch)) {
      return Status::InvalidArgument("unknown --dispatch: " + dispatch);
    }
  }
  ASF_RETURN_IF_ERROR(ParseSpillFlags(flags, &config.spill));

  // Query + protocol + tolerance.
  ASF_ASSIGN_OR_RETURN(config.query, ParseQuery(flags));
  ASF_ASSIGN_OR_RETURN(config.protocol,
                       ParseProtocol(flags.GetString("protocol", "zt-nrp")));
  ASF_ASSIGN_OR_RETURN(const std::int64_t r, flags.GetInt("r", 0));
  if (r < 0) return Status::InvalidArgument("--r must be >= 0");
  config.rank_r = static_cast<std::size_t>(r);
  ASF_ASSIGN_OR_RETURN(config.fraction.eps_plus,
                       flags.GetDouble("eps-plus", 0));
  ASF_ASSIGN_OR_RETURN(config.fraction.eps_minus,
                       flags.GetDouble("eps-minus", 0));
  ASF_ASSIGN_OR_RETURN(config.ft, ParseFtOptions(flags));

  // Oracle.
  ASF_ASSIGN_OR_RETURN(config.oracle.sample_interval,
                       flags.GetDouble("oracle-interval", 0));
  ASF_ASSIGN_OR_RETURN(config.oracle.check_every_update,
                       flags.GetBool("oracle-every-update", false));

  // Observability. The session owns the tracer and the profiler; the
  // engine sees only the non-owning hooks bundle.
  ASF_ASSIGN_OR_RETURN(const ObsSession obs_session,
                       ObsSession::FromFlags(flags));
  config.obs = obs_session.hooks();

  // A single query is the one-query deployment; --churn is a schedule of
  // them. Either way one engine run, one report.
  MultiQueryConfig run;
  static_cast<RunOptions&>(run) = config;
  if (flags.Has("churn")) {
    ASF_ASSIGN_OR_RETURN(const ChurnSpec spec, ParseChurn(flags, config));
    ASF_ASSIGN_OR_RETURN(run.queries, ExpandChurn(spec, run.duration));
    if (run.queries.empty()) {
      return Status::InvalidArgument(
          "churn schedule is empty; raise --churn-rate or --duration");
    }
  } else {
    run.queries.push_back(config.Deployment());
  }
  ASF_ASSIGN_OR_RETURN(const MultiQueryResult result,
                       RunMultiQuerySystem(run));
  std::printf("%s over %zu streams, duration %g (warmup %g)\n\n%s",
              std::string(ProtocolKindName(config.protocol)).c_str(),
              config.source.NumStreams(), config.duration, config.query_start,
              obs::RunReport(result, run.net).c_str());

  std::unique_ptr<metrics::JsonWriter> writer;
  if (flags.Has("bench-json")) {
    writer = std::make_unique<metrics::JsonWriter>("asf_run");
    writer->AddMetrics(obs::RunMetrics(result));
  }
  ASF_RETURN_IF_ERROR(obs_session.Finish(result.wall_seconds, writer.get()));
  if (writer != nullptr) {
    ASF_RETURN_IF_ERROR(writer->WriteTo(flags.GetString("bench-json")));
    std::printf("wrote %s\n", flags.GetString("bench-json").c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) {
  return asf::RunTool(argc, argv, asf::kKnownFlags, asf::kHelp,
                      asf::RunFromFlags);
}
