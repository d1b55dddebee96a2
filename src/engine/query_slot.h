#ifndef ASF_ENGINE_QUERY_SLOT_H_
#define ASF_ENGINE_QUERY_SLOT_H_

#include <memory>
#include <vector>

#include "engine/sim_core.h"
#include "filter/filter_arena.h"
#include "net/network_model.h"
#include "storage/record_store.h"

/// \file
/// The engine's per-query server runtime: how a deployment is wired — a
/// ServerContext over engine-built transport wires, a protocol RNG seeded
/// from the run seed, a protocol instance — and how its updates, oracle
/// judgments and run-length answer-size samples are accounted. Its
/// filters are one column of the engine's FilterArena. Internal to
/// src/engine; not part of the public API.

namespace asf {
namespace engine_internal {

/// Server-side runtime of one deployed query. The deploy builds ctx, rng
/// and protocol and takes an arena column (update_seq_floor grows on
/// demand); retirement frees them and the deployment, leaving the closed
/// record.
struct QuerySlot {
  QueryDeployment deployment;
  /// This slot's index in the engine's deployment order — the stable
  /// query address network messages carry (arena columns move under
  /// compaction, slot indices never do).
  std::size_t index = 0;
  SimTime deploy_at = 0;
  SimTime retire_at = kNeverRetire;
  std::unique_ptr<ServerContext> ctx;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<Protocol> protocol;
  QueryRunStats stats;

  bool live = false;
  /// The slot's arena column while live: its filters, one per stream. It
  /// moves under compaction, so every filter access reads it afresh.
  std::size_t column = FilterArena::kNoColumn;

  /// Incremental answer-size accounting: the answer only changes when
  /// this query's protocol handles a fired update, so the per-update
  /// sample stream is a run-length sequence — `answer_cur_size` repeated
  /// since sample number `answer_sampled_upto` (see FlushAnswerSamples).
  double answer_cur_size = 0.0;
  std::uint64_t answer_sampled_upto = 0;

  /// Per-stream floor of applied wire sequence numbers, maintained only
  /// when a reordering delivery model stamps them (Payload::seq != 0):
  /// a payload at or below the floor was obsoleted by an overtaker and is
  /// suppressed, so the server cache never regresses to a stale value.
  std::vector<std::uint64_t> update_seq_floor;

  /// Out-of-core state (engine/spill.h). After a spilling retire, the
  /// closed stats record lives on pages behind `spilled` and `stats` is
  /// dropped; `stats_resident` flips back to true when
  /// query_stats() faults the record in. valid() spilled + resident means
  /// both copies exist and the in-memory one is authoritative.
  storage::RecordRef spilled;
  bool stats_resident = true;
};

/// Wires `slot`'s deployment in place: a server context over `transport`,
/// a protocol RNG seeded QuerySlotSeed(run_seed, slot->index), a protocol
/// instance. In place because the wiring is self-referential — the
/// context counts into slot->stats.messages — so the slot must already
/// live at its final address.
void WireQuerySlot(QuerySlot* slot, std::size_t num_streams,
                   std::uint64_t run_seed, Transport transport);

/// Judges the slot's current answer against the true stream values,
/// accumulating the verdict into its stats.
void JudgeSlot(QuerySlot& slot, const std::vector<Value>& values);

/// Delivers one update payload that arrived at the server for this slot:
/// counts the logical kValueUpdate, closes the run of unchanged
/// answer-size samples, runs the protocol's Maintenance reaction, and
/// samples the new answer size. This is the single accounting sink every
/// NetworkModel delivery path and the reconnect reconciliation funnel
/// through. `updates_generated` is the engine's global update counter at
/// delivery time (the answer-size sample clock).
void DeliverUpdateToSlot(QuerySlot& slot, StreamId id, Value v, SimTime t,
                         std::uint64_t updates_generated);

/// The wire-message arrival sink of the engine's NetworkModel::UpdateSink
/// (SimulationCore::OnNetUpdate): one physical message whose payloads
/// each pass the server-arrival gate — retired-query drop accounting and
/// reorder seq-floor suppression — and are delivered through
/// DeliverUpdateToSlot, with a staleness sample under delayed delivery.
/// Returns whether any payload reached a live query.
bool DeliverWireMessage(std::vector<std::unique_ptr<QuerySlot>>& slots,
                        NetworkModel& net, bool net_delayed,
                        std::uint64_t updates_generated,
                        std::uint64_t& physical_updates, StreamId id,
                        const NetworkModel::Payload* payloads,
                        std::size_t count, SimTime at);

/// Appends the slot's pending run of unchanged answer-size samples (one
/// per generated update, up to update number `upto`) in O(1).
void FlushAnswerSamples(QuerySlot& slot, std::uint64_t upto);

/// The partition-reconnect summary-vector exchange the engine binds as
/// NetworkModel::ReconcileSink (DESIGN.md §11). Each reconnecting source
/// reports the data half of its summary vector — its current value in
/// `values` — and the server applies the entries its per-query view
/// missed: each live query's filter reference in `arena` re-syncs, and
/// values the cache is stale on are delivered as ordinary (charged)
/// reports so the protocol repairs its answer. The deploy half
/// (still-unacked constraint installs) is replayed by the fault pipeline
/// itself over the same handshake.
void ReconcileSlots(std::vector<std::unique_ptr<QuerySlot>>& slots,
                    FilterArena& arena, const std::vector<Value>& values,
                    NetworkModel& net, std::uint64_t updates_generated,
                    SimTime at);

}  // namespace engine_internal
}  // namespace asf

#endif  // ASF_ENGINE_QUERY_SLOT_H_
