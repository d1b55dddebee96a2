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
/// before the horizon (the deployment's start / end). The static batch
/// case — every query installed at options.query_start, none retired — is
/// simply the degenerate schedule, and produces results identical to an
/// engine without the lifecycle machinery (tests/sim_core_test.cc locks
/// this in).
///
/// Run is one loop over the lifecycle changes: every deploy (slot order),
/// then every retirement (slot order), stably sorted by time. For each
/// change at t it runs every event due strictly before t
/// (Scheduler::RunBefore), then the deploy or the retirement — so the
/// events due at t see the population as it stands after every change
/// at t. A second RunBefore(t) dispatches nothing: the events at t stay
/// pending until the loop moves past t.

namespace asf {

struct QuerySlot;  // engine/query_slot.h
namespace engine_internal {
class QueryStateSpiller;  // engine/spill.h
}  // namespace engine_internal

/// The engine runtime. Usage:
///
/// \code
///   SimulationCore core(options);           // builds the streams
///   core.AddQuery(deployment);              // live over [start, end)
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
  /// times carried by `deployment`:
  ///  * start < 0 resolves to options.query_start; the deploy time must
  ///    lie in [0, options.duration);
  ///  * end == kNeverRetire means no retirement; otherwise end must follow
  ///    the deploy time. At end the query's filters are uninstalled — one
  ///    pass-through kFilterDeploy per stream, charged under the query's
  ///    broadcast model — its arena column is released (the filter strip
  ///    compacts), and it stops being served and judged. An end at or
  ///    beyond options.duration means the query lives to the horizon (no
  ///    uninstall is charged; the run is over).
  /// The default deployment reproduces the classic static batch. Must be
  /// called before Run(). Returns the query's slot index.
  std::size_t AddQuery(const QueryDeployment& deployment);

  /// Drives the simulation to options.duration (file comment). Call
  /// exactly once, after every AddQuery.
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
  using Slot = QuerySlot;
  /// Reads the slot table of a finished run (tests/churn_test.cc).
  friend struct SimulationCoreTestPeer;

  /// Builds the slot's runtime — server context over fresh transport
  /// wires, protocol RNG, protocol instance. Run at the deploy (not by
  /// AddQuery) so pre-deployment slots stay lightweight records and
  /// resident runtime state tracks the live population (DESIGN.md §13).
  void WireSlot(std::size_t index);

  /// The deploy: wires the slot's runtime, takes an arena column for its
  /// filters (growing the arena if needed), runs the protocol's
  /// Initialization phase, and opens the live window.
  void InstallSlot(std::size_t index);

  /// The retirement: uninstalls the slot's filters (pass-through deploy),
  /// closes its books, releases its arena column with live-prefix
  /// compaction, and frees the runtime WireSlot built, so a retired slot
  /// is its closed record alone.
  void RetireSlot(std::size_t index);

  /// Closes a live slot's books at the current instant: its trailing run
  /// of answer-size samples, its retirement time and its reinit count.
  void CloseBooks(Slot& slot);

  /// Judges the slot's current answer against the true stream values,
  /// accumulating the verdict into its stats.
  void RunOracle(Slot& slot);

  /// RunOracle on every live slot.
  void JudgeLiveSlots();

  /// Periodic correctness sampling; reschedules itself every
  /// options_.oracle.sample_interval until the horizon.
  void OracleSampleTick();

  /// Delivers one update payload that arrived at the server for `slot`:
  /// counts the logical kValueUpdate, closes the run of unchanged
  /// answer-size samples, runs the protocol's Maintenance reaction, and
  /// samples the new answer size. The single accounting sink every
  /// delivery path and the reconnect reconciliation funnel through.
  void DeliverUpdate(Slot& slot, StreamId id, Value v);

  /// Appends the slot's pending run of unchanged answer-size samples (one
  /// per generated update, up to update number `upto`) in O(1).
  static void FlushAnswerSamples(Slot& slot, std::uint64_t upto);

  /// Network arrival sinks (NetworkModel::Bind). OnNetUpdate is one
  /// physical wire message whose payloads each pass the server-arrival
  /// gate — retired-query drop accounting and reorder seq-floor
  /// suppression — before DeliverUpdate; OnNetDeploy is a constraint
  /// install reaching its source. Run inline for instant models, as
  /// scheduler events otherwise.
  void OnNetUpdate(StreamId id, const NetworkModel::Payload* payloads,
                   std::size_t count, SimTime at);
  void OnNetDeploy(std::size_t slot, StreamId id,
                   const FilterConstraint& constraint, SimTime at);

  /// Partition-reconnect summary-vector exchange (NetworkModel::
  /// BindReconcile, DESIGN.md §11). Each source reports its current
  /// value; every live query's filter reference re-syncs, and values its
  /// cache is stale on are delivered as ordinary (charged) reports so the
  /// protocol repairs its answer. The deploy half (still-unacked
  /// constraint installs) is replayed by the fault pipeline itself.
  void OnNetReconcile();

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
