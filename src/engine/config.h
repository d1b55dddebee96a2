#ifndef ASF_ENGINE_CONFIG_H_
#define ASF_ENGINE_CONFIG_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "engine/spill_config.h"
#include "filter/dispatch.h"
#include "net/network_model.h"
#include "obs/hooks.h"
#include "protocol/options.h"
#include "protocol/server_context.h"
#include "query/query.h"
#include "stream/random_walk.h"
#include "stream/trace_source.h"
#include "tolerance/tolerance.h"

/// \file
/// Declarative configuration of one simulated run: the run-level options
/// (workload, horizon, seed, oracle, delivery, dispatch, spill, obs) plus
/// the queries it deploys. A (config, seed) pair fully determines a run.

namespace asf {

/// Which server-side protocol maintains the query.
enum class ProtocolKind : int {
  kNoFilter = 0,  ///< baseline: no filters, exact answers (§6)
  kZtNrp = 1,     ///< zero-tolerance range protocol (§5.1)
  kFtNrp = 2,     ///< fraction-tolerance range protocol (§5.1.1)
  kRtp = 3,       ///< rank-tolerance k-NN protocol (§4)
  kZtRp = 4,      ///< zero-tolerance k-NN protocol (§5.2.1)
  kFtRp = 5,      ///< fraction-tolerance k-NN protocol (§5.2.2-5.2.3)
};

std::string_view ProtocolKindName(ProtocolKind kind);

/// Value-semantic description of the continuous query.
struct QuerySpec {
  enum class Type : int { kRange = 0, kRank = 1 };

  Type type = Type::kRange;
  // kRange:
  double range_lo = 0;
  double range_hi = 0;
  // kRank:
  RankKind rank_kind = RankKind::kNearest;
  std::size_t k = 1;
  double query_point = 0;

  static QuerySpec Range(double lo, double hi) {
    QuerySpec spec;
    spec.type = Type::kRange;
    spec.range_lo = lo;
    spec.range_hi = hi;
    return spec;
  }
  static QuerySpec Knn(std::size_t k, double q) {
    QuerySpec spec;
    spec.type = Type::kRank;
    spec.rank_kind = RankKind::kNearest;
    spec.k = k;
    spec.query_point = q;
    return spec;
  }
  static QuerySpec TopK(std::size_t k) {
    QuerySpec spec;
    spec.type = Type::kRank;
    spec.rank_kind = RankKind::kMax;
    spec.k = k;
    return spec;
  }
  static QuerySpec BottomK(std::size_t k) {
    QuerySpec spec;
    spec.type = Type::kRank;
    spec.rank_kind = RankKind::kMin;
    spec.k = k;
    return spec;
  }

  /// Materializes the range query (type must be kRange).
  RangeQuery MakeRange() const;
  /// Materializes the rank query (type must be kRank).
  RankQuery MakeRank() const;

  Status Validate() const;
};

/// Where stream values come from.
struct SourceSpec {
  enum class Type : int { kRandomWalk = 0, kTrace = 1, kCustom = 2 };

  Type type = Type::kRandomWalk;
  RandomWalkConfig walk;             // kRandomWalk
  const TraceData* trace = nullptr;  // kTrace; borrowed, must outlive the run
  /// kCustom: a caller-provided stream set (e.g. geo/DistanceStreamSet).
  /// Borrowed, must outlive the run, and must be freshly constructed — the
  /// run installs its own update handler and starts it exactly once.
  StreamSet* custom = nullptr;

  static SourceSpec Walk(const RandomWalkConfig& config) {
    SourceSpec spec;
    spec.type = Type::kRandomWalk;
    spec.walk = config;
    return spec;
  }
  static SourceSpec Trace(const TraceData* trace) {
    SourceSpec spec;
    spec.type = Type::kTrace;
    spec.trace = trace;
    return spec;
  }
  static SourceSpec Custom(StreamSet* streams) {
    SourceSpec spec;
    spec.type = Type::kCustom;
    spec.custom = streams;
    return spec;
  }

  /// Stream population of this source.
  std::size_t NumStreams() const {
    switch (type) {
      case Type::kRandomWalk:
        return walk.num_streams;
      case Type::kTrace:
        return trace ? trace->num_streams() : 0;
      case Type::kCustom:
        return custom ? custom->size() : 0;
    }
    return 0;
  }

  Status Validate() const;
};

/// How intrusively the correctness oracle watches the run.
struct OracleOptions {
  /// Judge the answer after every generated update (O(n log n) each —
  /// meant for tests).
  bool check_every_update = false;
  /// Additionally judge at fixed simulated-time intervals (0 = off).
  SimTime sample_interval = 0;
};

/// Retire time of a query that lives to the end of the run.
inline constexpr SimTime kNeverRetire =
    std::numeric_limits<SimTime>::infinity();

/// One continuous query in a deployment. A single-query run is simply a
/// deployment of exactly one (SystemConfig::Deployment).
struct QueryDeployment {
  std::string name;  ///< label used in results (must be unique per run)
  QuerySpec query;
  ProtocolKind protocol = ProtocolKind::kNoFilter;
  std::size_t rank_r = 0;          ///< RTP only
  FractionTolerance fraction;      ///< FT-NRP / FT-RP only
  FtOptions ft;
  /// How server→all-streams transmissions of this query are charged
  /// (DESIGN.md §3; `bench/ablation_broadcast`).
  BroadcastCostModel broadcast = BroadcastCostModel::kPerRecipient;

  /// When the query arrives: its Initialization phase runs at this
  /// simulated time. Negative (the default) means "at the run's
  /// query_start", the static-batch convention.
  SimTime start = -1;
  /// When the query leaves: its filters are uninstalled and it stops
  /// being served / judged. kNeverRetire (the default) means it lives to
  /// the horizon.
  SimTime end = kNeverRetire;
};

/// The run-level half of every run description: what a run needs
/// whatever queries it deploys. SystemConfig and MultiQueryConfig extend
/// it, and SimulationCore takes it as its Options.
struct RunOptions {
  SourceSpec source;

  /// Simulated run length; stream updates stop at this horizon.
  SimTime duration = 1000;
  /// When the static queries are installed. Updates before this warm the
  /// stream values but generate no messages (no query exists yet).
  SimTime query_start = 0;

  /// Seed for protocol-internal randomness (placement heuristics) and
  /// the network model's fault draws.
  std::uint64_t seed = 1;

  OracleOptions oracle;

  /// How messages travel between server and sources (DESIGN.md §9). The
  /// default instant model reproduces the paper's zero-delay semantics
  /// byte-identically; delayed models turn message savings into
  /// observable staleness (`asf_run --net=...`, `bench/net_delay`).
  NetConfig net;

  /// How value changes are dispatched against the live filter population
  /// (DESIGN.md §10): the SIMD scan, the per-stream stabbing index, or a
  /// per-dispatch auto pick around the measured crossover. Every policy
  /// produces byte-identical results; this is purely a performance knob
  /// (`asf_run --dispatch=...`). kAuto additionally honors the
  /// ASF_DISPATCH environment override (an explicit scan/index config
  /// beats the environment).
  DispatchPolicy dispatch = DispatchPolicy::kAuto;

  /// Out-of-core retired-query state (DESIGN.md §13; `asf_run --spill`).
  /// Disabled by default; results are byte-identical either way.
  SpillConfig spill;

  /// Observability attachment (DESIGN.md §14): tracer and profiler.
  /// Non-owning; all-null (the default) disables everything.
  /// Provably inert — results are byte-identical either way.
  obs::ObsHooks obs;

  /// Checks the run-level fields: a valid source, a finite duration > 0,
  /// query_start in [0, duration), an oracle interval >= 0, and valid
  /// net and spill configs. NaN fails every one of these tests.
  Status Validate() const;
};

/// Full description of a single-query run: the run-level options plus
/// one query under one protocol.
struct SystemConfig : RunOptions {
  QuerySpec query;
  ProtocolKind protocol = ProtocolKind::kNoFilter;

  /// Rank slack r for RTP (ε_k^r = k + r).
  std::size_t rank_r = 0;
  /// Fraction tolerances for FT-NRP / FT-RP.
  FractionTolerance fraction;
  FtOptions ft;

  /// How server→all-streams transmissions are charged (DESIGN.md §3;
  /// `bench/ablation_broadcast`).
  bool broadcast_counts_as_one = false;

  /// The query as the one deployment RunSystem runs: static (installed at
  /// query_start, never retired) and named after its protocol.
  QueryDeployment Deployment() const;

  Status Validate() const;
};

/// Builds the stream set `source` describes. Custom sources are borrowed,
/// not built, and yield nullptr.
std::unique_ptr<StreamSet> MakeStreams(const SourceSpec& source);

}  // namespace asf

#endif  // ASF_ENGINE_CONFIG_H_
