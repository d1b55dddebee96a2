#ifndef ASF_ENGINE_RECORD_FIELDS_H_
#define ASF_ENGINE_RECORD_FIELDS_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/stats.h"
#include "engine/multi_system.h"
#include "engine/run_result.h"
#include "net/message.h"
#include "net/network_model.h"

/// \file
/// The run record's field list, written once. Each walk calls the visitor
/// as f(name, value) per field in a fixed order; value is a number or a
/// std::string, by reference, const when the record is. The spill codec
/// (engine/spill.cc) encodes and decodes a QueryRunStats through its
/// walk, the run report (obs/report.h) renders every numeric field under
/// its name, and the tests' golden digests walk the same pieces.

namespace asf {

/// A field's dotted name ("queries[3].answer_size.mean"): a chain of
/// parts joined only when a visitor calls str(), since the spill codec
/// walks a record per retired query and never reads a name.
class FieldName {
 public:
  FieldName() = default;
  /// A root named `part`, e.g. "queries[3]"; `part` must outlive the walk.
  explicit FieldName(std::string_view part) : part_(part) {}

  /// This name extended by `part`; valid while *this is.
  FieldName Child(std::string_view part) const {
    FieldName child(part);
    child.parent_ = this;
    return child;
  }

  std::string str() const {
    std::string out = parent_ != nullptr ? parent_->str() : std::string();
    if (!part_.empty()) {
      if (!out.empty()) out += '.';
      out += part_;
    }
    return out;
  }

 private:
  const FieldName* parent_ = nullptr;
  std::string_view part_;
};

/// `T` is `Record` or `const Record`: one walk serves readers and writers.
template <typename T, typename Record>
concept MaybeConst = std::same_as<std::remove_const_t<T>, Record>;

template <MaybeConst<OnlineStats> S, typename F>
void VisitFields(const FieldName& at, S& s, F& f) {
  OnlineStats::VisitState(s, at, f);
}

template <MaybeConst<NetStats> N, typename F>
void VisitFields(const FieldName& at, N& n, F& f) {
  f(at.Child("crossings"), n.crossings);
  f(at.Child("update_messages"), n.update_messages);
  f(at.Child("update_payloads"), n.update_payloads);
  f(at.Child("delivered_crossings"), n.delivered_crossings);
  f(at.Child("deploy_messages"), n.deploy_messages);
  f(at.Child("control_rpcs"), n.control_rpcs);
  f(at.Child("dropped_retired"), n.dropped_retired);
  f(at.Child("deploy_dropped_retired"), n.deploy_dropped_retired);
  f(at.Child("in_flight_at_end"), n.in_flight_at_end);
  f(at.Child("in_flight_crossings_at_end"), n.in_flight_crossings_at_end);
  f(at.Child("dropped_loss"), n.dropped_loss);
  f(at.Child("dropped_partition"), n.dropped_partition);
  f(at.Child("suppressed_stale"), n.suppressed_stale);
  f(at.Child("deploy_attempts"), n.deploy_attempts);
  f(at.Child("deploy_retransmits"), n.deploy_retransmits);
  f(at.Child("deploy_dropped"), n.deploy_dropped);
  f(at.Child("deploy_acks"), n.deploy_acks);
  f(at.Child("deploy_dup_suppressed"), n.deploy_dup_suppressed);
  f(at.Child("deploy_stale_acks"), n.deploy_stale_acks);
  f(at.Child("deploy_unacked_at_end"), n.deploy_unacked_at_end);
  f(at.Child("probe_retransmits"), n.probe_retransmits);
  f(at.Child("probe_failovers"), n.probe_failovers);
  f(at.Child("reconcile_exchanges"), n.reconcile_exchanges);
  f(at.Child("reconcile_deploys"), n.reconcile_deploys);
  VisitFields(at.Child("delay"), n.delay, f);
  VisitFields(at.Child("queue_depth"), n.queue_depth, f);
}

/// What a query's protocol and oracle produced, from the message counts
/// by phase and type to update_delay.
template <MaybeConst<QueryRunStats> Q, typename F>
void VisitQueryOutputs(const FieldName& at, Q& q, F& f) {
  const FieldName messages = at.Child("messages");
  for (int p = 0; p < kNumMessagePhases; ++p) {
    const FieldName phase = messages.Child(p == 0 ? "init" : "maintenance");
    for (int t = 0; t < kNumMessageTypes; ++t) {
      const auto type = static_cast<MessageType>(t);
      f(phase.Child(MessageTypeName(type)),
        q.messages.count(static_cast<MessagePhase>(p), type));
    }
  }
  f(at.Child("updates_reported"), q.updates_reported);
  f(at.Child("reinits"), q.reinits);
  VisitFields(at.Child("answer_size"), q.answer_size, f);
  f(at.Child("oracle_checks"), q.oracle_checks);
  f(at.Child("oracle_violations"), q.oracle_violations);
  f(at.Child("max_f_plus"), q.max_f_plus);
  f(at.Child("max_f_minus"), q.max_f_minus);
  f(at.Child("max_worst_rank"), q.max_worst_rank);
  f(at.Child("oracle_violations_in_flight"), q.oracle_violations_in_flight);
  VisitFields(at.Child("update_delay"), q.update_delay, f);
}

/// The whole per-query record, down to the message counter's accounting
/// phase, so decoding through this walk restores what was encoded.
template <MaybeConst<QueryRunStats> Q, typename F>
void VisitFields(const FieldName& at, Q& q, F& f) {
  f(at.Child("name"), q.name);
  VisitQueryOutputs(at, q, f);
  f(at.Child("fp_filters_installed"), q.fp_filters_installed);
  f(at.Child("fn_filters_installed"), q.fn_filters_installed);
  f(at.Child("deployed_at"), q.deployed_at);
  f(at.Child("retired_at"), q.retired_at);
  auto phase = static_cast<std::uint8_t>(q.messages.phase());
  f(at.Child("messages").Child("phase"), phase);
  if constexpr (!std::is_const_v<Q>) {
    q.messages.set_phase(static_cast<MessagePhase>(phase));
  }
}

template <typename F>
void VisitRunTotals(const FieldName& at, const MultiQueryResult& r, F& f) {
  f(at.Child("updates_generated"), r.updates_generated);
  f(at.Child("physical_updates"), r.physical_updates);
  f(at.Child("peak_live_queries"), r.peak_live_queries);
  VisitFields(at.Child("net"), r.net, f);
}

/// How the run performed, not what it computed: wall time, dispatch and
/// spill accounting.
template <typename F>
void VisitTelemetry(const FieldName& at, const RunTotals& r, F& f) {
  f(at.Child("wall_seconds"), r.wall_seconds);
  f(at.Child("dispatch_policy"), static_cast<int>(r.dispatch_policy));
  const FieldName dispatch = at.Child("dispatch");
  f(dispatch.Child("scan_dispatches"), r.dispatch.scan_dispatches);
  f(dispatch.Child("index_dispatches"), r.dispatch.index_dispatches);
  f(dispatch.Child("index_rebuilds"), r.dispatch.index_rebuilds);
  f(dispatch.Child("max_stream_rebuilds"), r.dispatch.max_stream_rebuilds);
  const FieldName spill = at.Child("spill");
  const SpillTelemetry& s = r.spill;
  f(spill.Child("buffer_pages"), s.buffer_pages);
  f(spill.Child("records_spilled"), s.records_spilled);
  f(spill.Child("records_faulted"), s.records_faulted);
  f(spill.Child("spilled_bytes"), s.spilled_bytes);
  f(spill.Child("faulted_bytes"), s.faulted_bytes);
  f(spill.Child("pool_hits"), s.pool_hits);
  f(spill.Child("pool_misses"), s.pool_misses);
  f(spill.Child("pool_evictions"), s.pool_evictions);
  f(spill.Child("pool_write_backs"), s.pool_write_backs);
  f(spill.Child("pool_resident_bytes"), s.pool_resident_bytes);
  f(spill.Child("file_bytes"), s.file_bytes);
}

}  // namespace asf

#endif  // ASF_ENGINE_RECORD_FIELDS_H_
