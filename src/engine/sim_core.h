#ifndef ASF_ENGINE_SIM_CORE_H_
#define ASF_ENGINE_SIM_CORE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "engine/config.h"
#include "engine/run_result.h"
#include "engine/spill_config.h"
#include "filter/filter_arena.h"
#include "net/message_stats.h"
#include "net/network_model.h"
#include "protocol/protocol.h"
#include "protocol/server_context.h"
#include "sim/scheduler.h"
#include "stream/stream_set.h"

/// \file
/// The simulation engine behind every run.
///
/// SimulationCore owns everything a run needs regardless of how many
/// queries are deployed: stream construction (walk / trace / custom), the
/// shared FilterArena with one column of filters per live query, a server
/// context and protocol instance per query, the Transport closures that
/// connect server to sources, the correctness oracle hooks, and the drive
/// loop. RunMultiQuerySystem is the one public adapter over it: it
/// validates a MultiQueryConfig, deploys its queries and collects one
/// QueryRunStats per query plus the run totals. RunSystem is a one-query
/// deployment through that same adapter (SystemConfig::Deployment), so a
/// single-query run and a one-query multi run are the same run.
///
/// Queries are a *dynamic population*: each one is deployed at a given
/// simulation time, runs under its tolerance protocol, and may retire
/// before the horizon (DeployQuery / RetireQuery). The static batch case —
/// AddQuery for every query, all installed at options.query_start, none
/// retired — is simply the degenerate schedule, and produces results
/// identical to an engine without the lifecycle machinery
/// (tests/sim_core_test.cc locks this in).
///
/// Run is one loop over the instants at which something other than an
/// event happens: a deploy, a retirement or a metrics snapshot. At each
/// such instant t it runs every event due strictly before t
/// (Scheduler::RunBefore), takes the snapshot, then runs the deploys
/// (slot order) and the retirements (slot order) at t — so a snapshot
/// sees the population as it stood just before t, and the events due at
/// t see it as it stands after.

namespace asf {

namespace engine_internal {
struct QuerySlot;          // engine/query_slot.h
class QueryStateSpiller;  // engine/spill.h
}  // namespace engine_internal

/// Seed of query slot `index`'s protocol RNG, derived from the run seed
/// (golden-ratio decorrelation).
inline std::uint64_t QuerySlotSeed(std::uint64_t run_seed,
                                   std::size_t index) {
  return run_seed ^ (0x9e3779b97f4a7c15ULL + index);
}

/// The engine runtime. Usage:
///
/// \code
///   SimulationCore core(options);           // builds the streams
///   core.AddQuery(deployment);              // static: live whole run
///   core.DeployQuery(deployment, t1);       // dynamic: arrives at t1...
///   core.RetireQuery(slot, t2);             // ...and leaves at t2
///   core.Run();                             // drives the scheduler
///   core.query_stats(0);                    // per-query outcomes
/// \endcode
///
/// Inputs must already be validated (MultiQueryConfig::Validate); the
/// core checks invariants with ASF_CHECK only.
class SimulationCore {
 public:
  /// The query-independent part of a run configuration (engine/config.h).
  using Options = RunOptions;

  explicit SimulationCore(const Options& options);
  SimulationCore(const SimulationCore&) = delete;
  SimulationCore& operator=(const SimulationCore&) = delete;
  ~SimulationCore();

  /// Registers one query: its own server context, protocol RNG (derived
  /// deterministically from the run seed and the slot index) and protocol
  /// instance. Deployment and retirement run as steps of Run's loop at the
  /// times carried by `deployment` (start < 0 resolves to
  /// options.query_start; end == kNeverRetire means no retirement), so the
  /// default deployment reproduces the classic static batch. Must be
  /// called before Run(). Returns the query's slot index.
  std::size_t AddQuery(const QueryDeployment& deployment);

  /// As AddQuery, but deploys at the explicit time `at` (must lie in
  /// [0, options.duration)), overriding deployment.start.
  std::size_t DeployQuery(const QueryDeployment& deployment, SimTime at);

  /// Schedules (or reschedules) the retirement of `slot` at time `at`,
  /// which must be later than its deploy time. At that simulated time the
  /// query's filters are uninstalled — one pass-through kFilterDeploy per
  /// stream, charged under the protocol's termination semantics — its
  /// arena column is released (the filter strip compacts), and it stops
  /// being served and judged. A time at or beyond options.duration means
  /// the query lives to the horizon (no uninstall is charged; the run is
  /// over). Must be called before Run().
  void RetireQuery(std::size_t slot, SimTime at);

  /// Drives the simulation to options.duration (file comment). Call
  /// exactly once, after every AddQuery/DeployQuery/RetireQuery.
  void Run();

  std::size_t num_queries() const { return slots_.size(); }

  /// Outcome of query slot `i`; valid after Run(). With spilling enabled
  /// a retired slot's record is faulted back through the buffer pool on
  /// first access (and stays resident afterwards).
  const QueryRunStats& query_stats(std::size_t i) const;

  /// Out-of-core spill accounting; all zero when options.spill is off.
  SpillTelemetry spill_telemetry() const;

  /// Value changes generated while at least one query was live.
  std::uint64_t updates_generated() const { return updates_generated_; }

  /// Update messages actually transmitted: a value change that crossed
  /// the filters of several queries at once costs one physical message
  /// (each affected query still accounts a logical update).
  std::uint64_t physical_updates() const { return physical_updates_; }

  /// Highest number of simultaneously live queries observed.
  std::size_t peak_live_queries() const { return peak_live_; }

  /// Delivery accounting of the run's network model; valid after Run().
  const NetStats& net_stats() const { return net_->stats(); }

  /// The dispatch policy the run actually executed (after the
  /// ASF_DISPATCH resolution) and its path accounting.
  DispatchPolicy dispatch_policy() const { return arena_.dispatch_policy(); }
  DispatchStats dispatch_stats() const { return arena_.dispatch_stats(); }

  /// Host wall-clock seconds from construction to the end of Run().
  double wall_seconds() const { return wall_seconds_; }

 private:
  using Slot = engine_internal::QuerySlot;
  /// Reads the slot table of a finished run (tests/churn_test.cc).
  friend struct SimulationCoreTestPeer;

  /// Judges slot `i`'s current answer against the true stream values.
  void RunOracle(Slot& slot);

  /// Builds the slot's runtime — server context over fresh transport
  /// wires, protocol RNG, protocol instance. Run at the deploy (not by
  /// DeployQuery) so pre-deployment slots stay lightweight records and
  /// resident runtime state tracks the live population (DESIGN.md §13).
  void WireSlot(std::size_t index);

  /// The deploy: wires the slot's runtime, takes an arena column for its
  /// filters (growing the arena if needed), runs the protocol's
  /// Initialization phase, and opens the live window.
  void InstallSlot(std::size_t index);

  /// The retirement: uninstalls the slot's filters (pass-through deploy),
  /// closes its accounting, releases its arena column with live-prefix
  /// compaction, and frees the runtime WireSlot built, so a retired slot
  /// is its closed record alone.
  void RetireSlot(std::size_t index);

  /// Periodic correctness sampling; reschedules itself every
  /// options_.oracle.sample_interval until the horizon.
  void OracleSampleTick();

  /// Network arrival sinks (NetworkModel::Bind): a wire message of update
  /// payloads reaching the server / a constraint install reaching its
  /// source. Run inline for instant models, as scheduler events otherwise.
  void OnNetUpdate(StreamId id, const NetworkModel::Payload* payloads,
                   std::size_t count, SimTime at);
  void OnNetDeploy(std::size_t slot, StreamId id,
                   const FilterConstraint& constraint, SimTime at);

  /// Partition-reconnect summary-vector exchange (NetworkModel::
  /// BindReconcile): every source reports its current value and the
  /// server repairs each live query's stale view (DESIGN.md §11).
  void OnNetReconcile(SimTime at);

  Options options_;
  /// Out-of-core endpoint for retired-query state; null when disabled.
  std::unique_ptr<engine_internal::QueryStateSpiller> spiller_;
  std::unique_ptr<StreamSet> owned_streams_;
  StreamSet* streams_ = nullptr;  // owned_streams_.get() or borrowed custom
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Stream-major shared filter storage for the live queries; grows and
  /// compacts as queries come and go.
  FilterArena arena_;
  /// Slot index of each live arena column (parallel to the arena's dense
  /// live prefix); the dispatch loop maps fired columns to their queries
  /// through it.
  std::vector<std::size_t> column_owner_;
  Scheduler scheduler_;
  /// The delivery model every source→server update and server→source
  /// deploy routes through (DESIGN.md §9).
  std::unique_ptr<NetworkModel> net_;
  /// False for instant-equivalent configs: delivery runs inside the
  /// producing event and staleness accounting is skipped (it is
  /// identically zero).
  bool net_delayed_ = false;
  /// Scratch: fired columns of the current dispatch, and the slot indices
  /// they map to.
  std::vector<std::uint32_t> fired_columns_;
  std::vector<std::size_t> fired_slots_;
  bool ran_ = false;
  std::size_t peak_live_ = 0;
  std::uint64_t updates_generated_ = 0;
  std::uint64_t physical_updates_ = 0;
  double wall_seconds_ = 0.0;
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace asf

#endif  // ASF_ENGINE_SIM_CORE_H_
