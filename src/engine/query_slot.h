#ifndef ASF_ENGINE_QUERY_SLOT_H_
#define ASF_ENGINE_QUERY_SLOT_H_

#include <memory>
#include <vector>

#include "engine/sim_core.h"
#include "filter/filter_arena.h"
#include "storage/record_store.h"

/// \file
/// The engine's per-query record: one deployment's window, its server
/// runtime while live — a ServerContext over engine-built transport wires,
/// a protocol RNG, a protocol instance, one column of the engine's
/// FilterArena — and its accounting. SimulationCore wires, serves, judges
/// and retires it; the spill endpoint (engine/spill.h) parks its closed
/// record. Internal to src/engine; not part of the public API.

namespace asf {

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
  /// since sample number `answer_sampled_upto`
  /// (SimulationCore::FlushAnswerSamples).
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

}  // namespace asf

#endif  // ASF_ENGINE_QUERY_SLOT_H_
