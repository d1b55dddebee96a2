#include "engine/query_slot.h"

#include <algorithm>
#include <utility>

#include "engine/protocol_factory.h"

namespace asf {
namespace engine_internal {

void WireQuerySlot(QuerySlot* slot, std::size_t num_streams,
                   std::uint64_t run_seed, Transport transport) {
  const QueryDeployment& deployment = slot->deployment;
  slot->ctx = std::make_unique<ServerContext>(
      num_streams, std::move(transport), &slot->stats.messages,
      deployment.broadcast);
  slot->rng = std::make_unique<Rng>(QuerySlotSeed(run_seed, slot->index));
  slot->protocol =
      MakeProtocol(deployment.query, deployment.protocol, deployment.rank_r,
                   deployment.fraction, deployment.ft, slot->ctx.get(),
                   slot->rng.get());
}

void JudgeSlot(QuerySlot& slot, const std::vector<Value>& values) {
  const QueryDeployment& dep = slot.deployment;
  const OracleCheck check =
      JudgeAnswer(dep.query, dep.protocol, dep.rank_r, dep.fraction, values,
                  slot.protocol->answer());
  QueryRunStats& out = slot.stats;
  ++out.oracle_checks;
  if (!check.ok) ++out.oracle_violations;
  out.max_f_plus = std::max(out.max_f_plus, check.f_plus);
  out.max_f_minus = std::max(out.max_f_minus, check.f_minus);
  out.max_worst_rank = std::max(out.max_worst_rank, check.worst_rank);
}

void DeliverUpdateToSlot(QuerySlot& slot, StreamId id, Value v, SimTime t,
                         std::uint64_t updates_generated) {
  slot.stats.messages.Count(MessageType::kValueUpdate);
  ++slot.stats.updates_reported;
  // The answer can only change while this slot handles the payload: close
  // the run of unchanged samples first (at the pre-delivery size), then
  // sample the new size once. Under instant delivery this reproduces the
  // classic per-fired-update sequence exactly; under delayed delivery a
  // second payload arriving before the next generated update leaves the
  // sample clock alone (one sample per generated update, never more).
  FlushAnswerSamples(slot, updates_generated > 0 ? updates_generated - 1 : 0);
  slot.protocol->HandleUpdate(id, v, t);
  slot.answer_cur_size = static_cast<double>(slot.protocol->answer().size());
  if (slot.answer_sampled_upto < updates_generated) {
    slot.stats.answer_size.AddRepeated(slot.answer_cur_size, 1);
    ++slot.answer_sampled_upto;
  }
}

bool DeliverWireMessage(std::vector<std::unique_ptr<QuerySlot>>& slots,
                        NetworkModel& net, bool net_delayed,
                        std::uint64_t updates_generated,
                        std::uint64_t& physical_updates, StreamId id,
                        const NetworkModel::Payload* payloads,
                        std::size_t count, SimTime at) {
  // One invocation = one physical wire message: it serves every query
  // whose filter fired (each still accounts a logical update so
  // per-query costs remain comparable to a single-query run), and under
  // batching a payload may stand for several coalesced crossings.
  ++physical_updates;
  bool delivered = false;
  for (std::size_t i = 0; i < count; ++i) {
    const NetworkModel::Payload& p = payloads[i];
    QuerySlot& slot = *slots[p.slot];
    if (!slot.live) {
      // The query retired while the message was in flight; its books are
      // closed and its arena column is gone (DESIGN.md §9).
      net.stats().dropped_retired += p.crossings;
      continue;
    }
    net.stats().delivered_crossings += p.crossings;
    if (p.seq != 0) {
      // A reordering link stamped wire seqnos: suppress anything an
      // overtaker already obsoleted for this (query, stream) pair.
      if (slot.update_seq_floor.size() <= id) {
        slot.update_seq_floor.resize(id + 1, 0);
      }
      if (p.seq <= slot.update_seq_floor[id]) {
        net.stats().suppressed_stale += p.crossings;
        continue;
      }
      slot.update_seq_floor[id] = p.seq;
    }
    DeliverUpdateToSlot(slot, id, p.value, at, updates_generated);
    if (net_delayed) slot.stats.update_delay.Add(at - p.crossed_at);
    delivered = true;
  }
  return delivered;
}

void FlushAnswerSamples(QuerySlot& slot, std::uint64_t upto) {
  if (upto > slot.answer_sampled_upto) {
    slot.stats.answer_size.AddRepeated(slot.answer_cur_size,
                                       upto - slot.answer_sampled_upto);
    slot.answer_sampled_upto = upto;
  }
}

void ReconcileSlots(std::vector<std::unique_ptr<QuerySlot>>& slots,
                    FilterArena& arena, const std::vector<Value>& values,
                    NetworkModel& net, std::uint64_t updates_generated,
                    SimTime at) {
  net.stats().reconcile_exchanges += values.size();
  for (auto& slot_ptr : slots) {
    QuerySlot& slot = *slot_ptr;
    if (!slot.live) continue;
    for (StreamId id = 0; id < values.size(); ++id) {
      const Value v = values[id];
      arena.SyncReference(id, slot.column, v);
      if (slot.ctx->cached(id) != v) {
        DeliverUpdateToSlot(slot, id, v, at, updates_generated);
      }
    }
  }
}

}  // namespace engine_internal
}  // namespace asf
