#ifndef ASF_NET_NETWORK_MODEL_H_
#define ASF_NET_NETWORK_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "filter/constraint.h"
#include "obs/trace.h"
#include "sim/scheduler.h"

/// \file
/// Simulated message delivery between stream sources and the server.
///
/// The paper assumes messages arrive instantaneously inside the event that
/// produced them (DESIGN.md §1); this subsystem makes delivery a
/// first-class, pluggable model so message savings become observable
/// latency/staleness trade-offs. The engine routes every source→server
/// update message and every server→source constraint deployment through a
/// NetworkModel, which decides *when* (and, for batching, *how coalesced*)
/// the message reaches the other end — inline for zero-delay models,
/// as scheduler events otherwise. Control-plane request/response exchanges
/// (probes, region probes) are modeled as zero-time RPCs; they are observed
/// for accounting and — under a faulty configuration — may fail after
/// bounded retransmission (DESIGN.md §9 and §11 record the full contract).
///
/// Four base models ship (`MakeNetworkModel`):
///  * InstantNet          — the paper's semantics, byte-identical to the
///                          pre-subsystem engines;
///  * FixedLatencyNet     — per-link constant delay plus optional uniform
///                          jitter, FIFO per link and direction;
///  * BatchedNet          — sources coalesce filter crossings and flush on
///                          a global Δ grid (the paper's natural batching
///                          relaxation: one wire message per dirty source
///                          per window, latest value per query);
///  * BoundedBandwidthNet — per-source uplink FIFO served at a fixed rate,
///                          so bursts induce queueing delay.
///
/// Any base model composes with the *fault stage* of net/fault_pipeline.h
/// — probabilistic loss (i.i.d. or Gilbert-Elliott bursts), bounded
/// reordering, and scheduled partitions — which also turns the control
/// plane into retransmitting state machines (deploy acks + capped
/// exponential backoff, probe retry with cached-value failover, and
/// summary-vector reconciliation at partition up-edges). DESIGN.md §11.
/// The stage is part of the one model a run builds, not a second model
/// around it: it works on the model's scheduler, sinks, NetStats and its
/// one in-flight ledger.

namespace asf {

/// Which delivery model a run uses, plus its parameters. Parsed from the
/// `--net=` spec (`ParseNetSpec`) or filled directly.
struct NetConfig {
  enum class Kind : int {
    kInstant = 0,           ///< deliver inside the producing event
    kFixedLatency = 1,      ///< constant per-link delay + uniform jitter
    kBatched = 2,           ///< coalesce crossings, flush every Δ
    kBoundedBandwidth = 3,  ///< per-source FIFO uplink with service rate
  };

  Kind kind = Kind::kInstant;
  /// kFixedLatency: constant one-way delay per message (time units).
  double latency = 0;
  /// kFixedLatency: extra per-message delay drawn uniformly from
  /// [0, jitter) (deterministic under the run seed).
  double jitter = 0;
  /// kBatched: flush period. Sources flush pending crossings at the next
  /// multiple of delta strictly after the first pending crossing.
  double delta = 0;
  /// kBoundedBandwidth: uplink service rate in messages per time unit
  /// (each message occupies the link for 1/rate).
  double rate = 0;

  // --- Fault stages, composable with any base model (DESIGN.md §11) ---
  /// Per-wire-message drop probability in [0, 1] (`loss:p`). Applies to
  /// update messages, deploy transmissions, deploy acks and probe
  /// exchanges, per direction.
  double loss = 0;
  /// Mean loss-burst length (`loss:p:burst`). 1 = i.i.d. drops; > 1 runs a
  /// per-(link, direction) Gilbert-Elliott chain whose bad state drops
  /// everything, tuned so the stationary drop rate is `loss` and the mean
  /// bad sojourn is `loss_burst` messages.
  double loss_burst = 1;
  /// Bounded out-of-order delivery (`reorder:k`): each surviving update
  /// wire message is held back behind up to k later messages on its link
  /// (hold drawn uniformly from {0..k}); stale payloads are suppressed at
  /// the server via per-link sequence numbers.
  std::uint32_t reorder = 0;
  /// Scheduled link-down windows (`partition:t0,t1,...`), strictly
  /// increasing boundaries: every link is down in [t0,t1), [t2,t3), ...;
  /// an odd count leaves the final window open to the horizon. Messages
  /// and RPCs that hit a down window are dropped; at each up-edge the
  /// sources run a summary-vector reconciliation exchange with the server
  /// unless `norecon` is set.
  std::vector<double> partition;
  /// Deploy retransmission initial timeout (`rto:t[:max]`); 0 = auto
  /// (max(1, 4·(latency+jitter))). Backoff doubles per attempt.
  double rto = 0;
  /// Retransmission backoff cap; 0 = auto (64·initial).
  double rto_max = 0;
  /// Adaptive retransmission timeout (`rto:adaptive[:max]`; on by
  /// default, `rto:fixed[:max]` turns it off). Active only while `rto`
  /// is 0 (an explicit timeout always wins): each link runs an RFC 6298
  /// SRTT/RTTVAR estimator over Karn-filtered deploy-ack round trips, and
  /// once a link has a sample its backoff base becomes
  /// clamp(srtt + 4·rttvar, 1, cap) instead of the conservative
  /// RtoInitial(). Links without a sample keep RtoInitial().
  bool rto_adaptive = true;
  /// Staleness compensation (`comp:g`): every constraint installs at the
  /// source with each finite interval bound pulled inward by g, so
  /// boundary-approaching values report an expected-delay bound early.
  double comp = 0;
  /// Summary-vector reconciliation at partition up-edges (`norecon`
  /// disables it): reconnecting sources report their current values and
  /// the server replays un-acked constraint installs over the handshake.
  bool reconcile = true;

  Status Validate() const;

  /// True when any fault stage is active (the model then carries a
  /// FaultPipeline).
  bool HasFaults() const {
    return loss > 0 || reorder > 0 || !partition.empty();
  }

  /// True when the base model's own parameters delay delivery: a positive
  /// latency or jitter, a positive Δ, a finite rate. A base model that
  /// does not (`latency:0`, `batch:0`, `bw:inf`) is built as InstantNet.
  bool BaseDelays() const;

  /// False when the configured parameters make the run observably
  /// identical to InstantNet: a base model that does not delay
  /// (BaseDelays), no active fault stage and no compensation margin.
  bool DelaysDelivery() const;

  /// The resolved retransmission timeout parameters.
  double RtoInitial() const;
  double RtoMax() const;

  /// Canonical `--net=` spec form ("instant", "latency:5:2", "batch:10",
  /// "bw:0.5", "latency:5+loss:0.1:4+partition:100,200").
  std::string ToString() const;
};

/// Parses a `--net=` spec: stages joined by `+`, at most one base model
/// (`instant`, `latency:<d>[:<jitter>]`, `batch:<delta>`, `bw:<rate>`)
/// plus fault stages `loss:<p>[:<burst>]`, `reorder:<k>`,
/// `partition:<t0>,<t1>[,...]`, `rto:<t>[:<max>]` (or `rto:adaptive[:<max>]`
/// / `rto:fixed[:<max>]`), `comp:<g>`, `norecon`.
/// Malformed specs yield a precise InvalidArgument diagnostic.
Result<NetConfig> ParseNetSpec(const std::string& spec);

/// Run-level delivery accounting, owned by the model. Message *costs*
/// stay in MessageStats (counted once, at server arrival / source
/// install — see DESIGN.md §9); NetStats measures what delivery *did* to
/// them: coalescing, delay, drops, retransmissions.
///
/// Crossings obey the conservation invariant, which SimulationCore::Run
/// checks at the end of every run, in every build:
///   crossings == delivered_crossings + dropped_loss + dropped_partition
///                + dropped_retired + in_flight_crossings_at_end.
struct NetStats {
  /// Source-side filter crossings offered to the network (one per fired
  /// query per update). Under batching several crossings may coalesce
  /// into one delivered payload.
  std::uint64_t crossings = 0;
  /// Physical source→server wire messages delivered (batch: one per
  /// flush per dirty source).
  std::uint64_t update_messages = 0;
  /// Per-query payloads delivered to the server (== crossings for
  /// non-coalescing models).
  std::uint64_t update_payloads = 0;
  /// Crossings in payloads that reached a live query's server context
  /// (including reordered payloads suppressed as stale on arrival).
  std::uint64_t delivered_crossings = 0;
  /// Server→source constraint installs delivered to sources.
  std::uint64_t deploy_messages = 0;
  /// Control-plane RPC exchanges observed (probes/region probes).
  std::uint64_t control_rpcs = 0;
  /// Update crossings in payloads that arrived after their query retired
  /// and were dropped (the engine's books for that query are closed).
  std::uint64_t dropped_retired = 0;
  /// Constraint installs that arrived after their query retired.
  std::uint64_t deploy_dropped_retired = 0;
  /// Wire messages still undelivered when the run hit its horizon (any
  /// direction, including held reordered messages and in-flight control
  /// traffic).
  std::uint64_t in_flight_at_end = 0;
  /// Update crossings still undelivered at the horizon.
  std::uint64_t in_flight_crossings_at_end = 0;

  // --- Fault stages (zero without a fault stage; DESIGN.md §11) ---
  /// Update crossings dropped by the loss process / inside a partition
  /// window.
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  /// Crossings in delivered payloads suppressed at the server because a
  /// newer payload from the same link had already been applied
  /// (reordering duplicate suppression).
  std::uint64_t suppressed_stale = 0;
  /// Deploy transmissions (first sends + retransmissions), and how they
  /// fared. deploy_dropped counts deploy/ack wire copies lost to
  /// loss/partition.
  std::uint64_t deploy_attempts = 0;
  std::uint64_t deploy_retransmits = 0;
  std::uint64_t deploy_dropped = 0;
  std::uint64_t deploy_acks = 0;
  /// Retransmitted installs the source had already applied (suppressed by
  /// sequence number; still re-acked).
  std::uint64_t deploy_dup_suppressed = 0;
  /// Acks for a superseded or already-acked sequence number, ignored.
  std::uint64_t deploy_stale_acks = 0;
  /// Deploy channels whose latest install was never acked by the horizon.
  std::uint64_t deploy_unacked_at_end = 0;
  /// Probe exchanges re-attempted after a lost request/response, and
  /// probes that exhausted their attempts (or hit a partition) and served
  /// the server's cached value instead.
  std::uint64_t probe_retransmits = 0;
  std::uint64_t probe_failovers = 0;
  /// Partition up-edge summary-vector exchanges (one per link) and the
  /// constraint installs replayed over them.
  std::uint64_t reconcile_exchanges = 0;
  std::uint64_t reconcile_deploys = 0;

  /// Server-side staleness: delivery time minus the (latest coalesced)
  /// crossing time, one sample per delivered payload. Empty for
  /// zero-delay models (staleness is identically zero).
  OnlineStats delay;
  /// BoundedBandwidth only: uplink queue length seen by each enqueued
  /// message (0 = idle link).
  OnlineStats queue_depth;

  /// Crossings coalesced per wire message — 1.0 without batching; the
  /// batching win the Δ sweep measures.
  double MessagesPerFlush() const {
    return update_messages == 0
               ? 0.0
               : static_cast<double>(crossings) /
                     static_cast<double>(update_messages);
  }
};

class FaultPipeline;

/// Delivery model interface. One instance serves one run (models keep
/// per-link state); the engine binds its scheduler and arrival sinks
/// before the first send. A subclass decides when update wire messages
/// (SendUpdate) and, for the latency model, constraint installs
/// (DeliverDeploy) arrive; the fault stage, when the configuration has
/// one, is part of the same model (`faults_`) and sits at every message's
/// egress.
class NetworkModel {
 public:
  /// Per-query payload of an update message arriving at the server.
  struct Payload {
    std::size_t slot = 0;       ///< destination query slot index
    Value value = 0;            ///< value that crossed (latest if coalesced)
    SimTime crossed_at = 0;     ///< when that crossing happened
    std::uint64_t crossings = 1;  ///< crossings coalesced into this payload
    /// Per-link wire sequence number, stamped by the fault stage when
    /// reordering is possible (0 otherwise). The server suppresses
    /// payloads whose seq is not newer than the last applied for the
    /// (slot, stream) pair, so its cache never regresses.
    std::uint64_t seq = 0;
  };

  /// One call = one physical wire message arriving at the server, carrying
  /// `count` per-query payloads. The pointer is valid for the call only.
  using UpdateSink = std::function<void(StreamId id, const Payload* payloads,
                                        std::size_t count, SimTime at)>;
  /// One server→source constraint install arriving at stream `id`.
  using DeploySink = std::function<void(std::size_t slot, StreamId id,
                                        const FilterConstraint& constraint,
                                        SimTime at)>;
  /// Partition-reconnect summary-vector exchange hook the engine binds:
  /// invoked once per up-edge, from the scheduler event at that time.
  using ReconcileSink = std::function<void()>;

  virtual ~NetworkModel();
  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Wires the model into an engine. `scheduler` is the engine's event
  /// loop, where delayed deliveries are scheduled. Must be called exactly
  /// once, before any Send*.
  void Bind(Scheduler* scheduler, UpdateSink on_update, DeploySink on_deploy);

  /// Binds the engine's reconnect-reconciliation handler. Only a fault
  /// stage with a partition schedule ever invokes it.
  void BindReconcile(ReconcileSink sink) { reconcile_sink_ = std::move(sink); }

  /// Run-start hook, called by the engine once per run after its oracle
  /// tick is scheduled and before the first stream event: the fault stage
  /// schedules its partition reconnect exchanges here, which fixes their
  /// FIFO seniority at equal timestamps.
  void StartRun(SimTime horizon);

  /// Data plane: stream `id` changed to `v` at `now`, crossing the filter
  /// of each query slot in `slots` (ascending, no duplicates). The model
  /// delivers through the update sink — inline before returning for
  /// zero-delay models.
  virtual void SendUpdate(StreamId id, Value v,
                          const std::vector<std::size_t>& slots,
                          SimTime now) = 0;

  /// Control plane, server→source: deliver `constraint` to stream `id` on
  /// behalf of query `slot` — through the fault stage's retransmitting
  /// channel when there is one, else DeliverDeploy.
  void SendDeploy(std::size_t slot, StreamId id,
                  const FilterConstraint& constraint, SimTime now);

  /// Control-plane request/response exchange (probe/region probe). Zero
  /// simulated time passes (DESIGN.md §9). Returns false when the fault
  /// stage lost the exchange — partitioned link, or every bounded
  /// retransmission dropped — in which case the caller serves its cached
  /// value instead (DESIGN.md §11). Without a fault stage it always
  /// succeeds.
  bool ControlRpc(StreamId id, SimTime now);

  /// Update payloads currently in flight toward query `slot` — what the
  /// oracle consults to attribute a tolerance violation to transit delay.
  std::uint64_t InFlight(std::size_t slot) const {
    return slot < in_flight_.size() ? in_flight_[slot] : 0;
  }

  /// Closes the books at the run horizon: records messages that never
  /// arrived. Call once, after the last event has run.
  void Finalize(SimTime horizon);

  NetStats& stats() { return stats_; }
  const NetStats& stats() const { return stats_; }

  /// The tracer wire drops are recorded on (DESIGN.md §14). Null (the
  /// default) = off; one branch per trace point. The engine sets this
  /// before Run.
  void set_tracer(obs::Tracer* tracer) { obs_tracer_ = tracer; }

 protected:
  NetworkModel() = default;

  /// Delivers one constraint install (fault-free runs only). The default
  /// delivers inside the producing event; the latency model delays it.
  virtual void DeliverDeploy(std::size_t slot, StreamId id,
                             const FilterConstraint& constraint, SimTime now);

  /// Model hook run when a scheduled wire message leaves the network
  /// (before the sink), e.g. to release link-queue occupancy.
  virtual void OnWireDelivered(StreamId id) { (void)id; }

  /// Final egress of one update wire message: the fault stage (if any)
  /// delivers, drops or holds it; otherwise the delivery is accounted and
  /// handed to the engine. `sample_delay` is false only on the zero-delay
  /// inline path, where staleness is identically zero and no samples are
  /// recorded (byte-identity with the pre-subsystem engines).
  void EmitUpdate(StreamId id, std::vector<Payload>& payloads, SimTime at,
                  bool sample_delay);

  /// Schedules `fn` at `at`, a delivery the model computed as `delay`
  /// after its send time. When `at` is exactly `delay` past the
  /// scheduler's clock — a jitter-free send at the current time — the
  /// event goes through ScheduleAfter(delay), same key, and rides the
  /// scheduler's FIFO lane for that delay (DESIGN.md §5). Any other `at`
  /// (a jittered delay, a bandwidth queue's wait) keeps the heap.
  EventId ScheduleDelivery(SimTime at, SimTime delay, EventCallback fn) {
    if (at == scheduler_->now() + delay) {
      return scheduler_->ScheduleAfter(delay, std::move(fn));
    }
    return scheduler_->ScheduleAt(at, std::move(fn));
  }

  /// Enqueues one wire message of `payloads` from stream `id` for
  /// delivery at `at`, which the model computed as `delay` after the send
  /// (ScheduleDelivery) — the single copy of the delayed-delivery
  /// accounting (in-flight tracking, wire/payload/delay stats, sink
  /// call) shared by every delaying model.
  void ScheduleWireMessage(StreamId id, std::vector<Payload> payloads,
                           SimTime at, SimTime delay);

  void AddInFlight(std::size_t slot) {
    if (slot >= in_flight_.size()) in_flight_.resize(slot + 1, 0);
    ++in_flight_[slot];
  }
  void SubInFlight(std::size_t slot) {
    ASF_DCHECK(slot < in_flight_.size() && in_flight_[slot] > 0);
    --in_flight_[slot];
  }

  Scheduler* scheduler_ = nullptr;
  UpdateSink update_sink_;
  DeploySink deploy_sink_;
  NetStats stats_;
  /// The drop tracer (see set_tracer); null = off.
  obs::Tracer* obs_tracer_ = nullptr;
  /// The wire's one ledger — these two counts and the per-slot payload
  /// counts in in_flight_ — with held messages and control copies
  /// included: wire messages not yet delivered (any direction) and
  /// update crossings not yet delivered.
  std::uint64_t pending_wire_ = 0;
  std::uint64_t pending_crossings_ = 0;

 private:
  friend class FaultPipeline;
  friend std::unique_ptr<NetworkModel> MakeNetworkModel(
      const NetConfig& config, std::uint64_t seed);

  void AccountAndDeliver(StreamId id, std::vector<Payload>& payloads,
                         SimTime at, bool sample_delay) {
    ++stats_.update_messages;
    stats_.update_payloads += payloads.size();
    if (sample_delay) {
      for (const Payload& p : payloads) stats_.delay.Add(at - p.crossed_at);
    }
    update_sink_(id, payloads.data(), payloads.size(), at);
  }

  std::vector<std::uint64_t> in_flight_;
  ReconcileSink reconcile_sink_;
  /// The fault stage; null unless NetConfig::HasFaults().
  std::unique_ptr<FaultPipeline> faults_;
};

/// Staleness compensation (DESIGN.md §11): the constraint as installed at
/// the source under guard band `margin` — each finite interval bound
/// pulled inward by `margin`, collapsing to the original midpoint when the
/// bands cross. No-filter and the silent FP/FN forms pass through.
FilterConstraint CompensateConstraint(const FilterConstraint& constraint,
                                      double margin);

/// Builds the model `config` describes. `seed` feeds the model's
/// deterministic randomness (latency jitter, fault draws); models derive
/// decorrelated substreams so protocol RNG consumption is unaffected.
/// Configurations with active fault stages come back with a FaultPipeline
/// attached (net/fault_pipeline.h).
std::unique_ptr<NetworkModel> MakeNetworkModel(const NetConfig& config,
                                               std::uint64_t seed);

}  // namespace asf

#endif  // ASF_NET_NETWORK_MODEL_H_
