#ifndef ASF_TESTS_TEST_HARNESS_H_
#define ASF_TESTS_TEST_HARNESS_H_

#include <cstdint>
#include <vector>

#include "filter/dispatch.h"
#include "filter/filter_arena.h"
#include "net/message_stats.h"
#include "protocol/protocol.h"
#include "protocol/server_context.h"

/// \file
/// A miniature, scheduler-free distributed system for protocol unit tests:
/// a vector of true values, the query's filters as one column of a
/// FilterArena, and a ServerContext wired to them. Tests mutate values
/// directly and observe exactly which updates cross the filters — through
/// FilterArena::DispatchUpdate, the engine's own per-update path (under
/// the ASF_DISPATCH policy when set), minus the event queue, so scenarios
/// are fully scripted.

namespace asf {

class TestSystem {
 public:
  explicit TestSystem(
      std::vector<Value> initial,
      BroadcastCostModel broadcast = BroadcastCostModel::kPerRecipient)
      : values_(std::move(initial)),
        arena_(values_.size()),
        column_(arena_.Acquire()),
        ctx_(values_.size(), MakeTransport(), &stats_, broadcast) {
    arena_.SetDispatchPolicy(ResolveDispatchPolicy(DispatchPolicy::kAuto));
  }

  ServerContext* ctx() { return &ctx_; }
  MessageStats& stats() { return stats_; }
  const std::vector<Value>& values() const { return values_; }
  Value value(StreamId id) const { return values_[id]; }

  /// Stream `id`'s filter: its deployed constraint and membership
  /// reference.
  Filter filter(StreamId id) const { return arena_.cell(id, column_); }

  /// Filters currently in the [−∞, ∞] (false positive) state.
  std::size_t CountFalsePositiveFilters() const {
    return Count(&FilterConstraint::IsFalsePositiveFilter);
  }
  /// Filters currently in the [∞, ∞] (false negative) state.
  std::size_t CountFalseNegativeFilters() const {
    return Count(&FilterConstraint::IsFalseNegativeFilter);
  }
  /// Streams with any interval filter installed.
  std::size_t CountInstalled() const {
    return Count(&FilterConstraint::has_filter);
  }

  /// Runs a protocol's initialization under the init accounting phase and
  /// switches to maintenance, as the engine does at query start.
  void Initialize(Protocol* protocol) {
    stats_.set_phase(MessagePhase::kInit);
    protocol->Initialize();
    stats_.set_phase(MessagePhase::kMaintenance);
  }

  /// Changes a stream's value; if the client filter fires, the update is
  /// counted and delivered to the protocol. Returns whether it was
  /// reported.
  bool SetValue(Protocol* protocol, StreamId id, Value v) {
    return SetValueInto(
        [protocol](StreamId sid, Value sv) { protocol->HandleUpdate(sid, sv); },
        id, v);
  }

  /// Like SetValue but delivering to an arbitrary server-side handler
  /// instead of a Protocol (for unit tests of protocol internals such as
  /// FractionFilterCore).
  template <typename Handler>
  bool SetValueInto(Handler&& handler, StreamId id, Value v) {
    if (!Dispatch(id, v)) return false;
    stats_.Count(MessageType::kValueUpdate);
    handler(id, v);
    return true;
  }

  /// Changes a stream's value without involving the protocol (silent drift
  /// behind a silent filter, or pre-query warm-up).
  void SetValueSilently(StreamId id, Value v) {
    const bool fired = Dispatch(id, v);
    ASF_CHECK_MSG(!fired, "SetValueSilently crossed the filter");
  }

 private:
  /// Records the new value and runs it through the stream's filter.
  /// Returns whether the filter fired.
  bool Dispatch(StreamId id, Value v) {
    values_[id] = v;
    arena_.DispatchUpdate(id, v, &fired_);
    return !fired_.empty();
  }

  /// Filters whose constraint satisfies `predicate`.
  std::size_t Count(bool (FilterConstraint::*predicate)() const) const {
    std::size_t n = 0;
    for (StreamId id = 0; id < values_.size(); ++id) {
      n += (filter(id).constraint().*predicate)();
    }
    return n;
  }

  Transport MakeTransport() {
    Transport t;
    t.probe = [this](StreamId id) {
      const Value v = values_[id];
      arena_.SyncReference(id, column_, v);
      return v;
    };
    t.region_probe = [this](StreamId id,
                            const Interval& region) -> std::optional<Value> {
      const Value v = values_[id];
      if (!region.Contains(v)) return std::nullopt;
      arena_.SyncReference(id, column_, v);
      return v;
    };
    t.deploy = [this](StreamId id, const FilterConstraint& constraint) {
      arena_.Deploy(id, column_, constraint, values_[id]);
    };
    return t;
  }

  std::vector<Value> values_;
  FilterArena arena_;
  std::size_t column_;
  std::vector<std::uint32_t> fired_;
  MessageStats stats_;
  ServerContext ctx_;
};

}  // namespace asf

#endif  // ASF_TESTS_TEST_HARNESS_H_
