#ifndef ASF_TESTS_TEST_HARNESS_H_
#define ASF_TESTS_TEST_HARNESS_H_

#include <vector>

#include "filter/filter_bank.h"
#include "net/message_stats.h"
#include "protocol/protocol.h"
#include "protocol/server_context.h"

/// \file
/// A miniature, scheduler-free distributed system for protocol unit tests:
/// a vector of true values, a client-side filter bank, and a ServerContext
/// wired to them. Tests mutate values directly and observe exactly which
/// updates cross the filters — the same flow the engine drives, minus the
/// event queue, so scenarios are fully scripted.

namespace asf {

class TestSystem {
 public:
  explicit TestSystem(std::vector<Value> initial)
      : values_(std::move(initial)),
        filters_(values_.size()),
        ctx_(values_.size(), MakeTransport(), &stats_) {}

  ServerContext* ctx() { return &ctx_; }
  MessageStats& stats() { return stats_; }
  FilterBank& filters() { return filters_; }
  const std::vector<Value>& values() const { return values_; }
  Value value(StreamId id) const { return values_[id]; }

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
    values_[id] = v;
    if (!filters_.at(id).OnValueChange(v)) return false;
    stats_.Count(MessageType::kValueUpdate);
    protocol->HandleUpdate(id, v);
    return true;
  }

  /// Like SetValue but delivering to an arbitrary server-side handler
  /// instead of a Protocol (for unit tests of protocol internals such as
  /// FractionFilterCore).
  template <typename Handler>
  bool SetValueInto(Handler&& handler, StreamId id, Value v) {
    values_[id] = v;
    if (!filters_.at(id).OnValueChange(v)) return false;
    stats_.Count(MessageType::kValueUpdate);
    handler(id, v);
    return true;
  }

  /// Changes a stream's value without involving the protocol (silent drift
  /// behind a silent filter, or pre-query warm-up).
  void SetValueSilently(StreamId id, Value v) {
    values_[id] = v;
    const bool fired = filters_.at(id).OnValueChange(v);
    ASF_CHECK_MSG(!fired, "SetValueSilently crossed the filter");
  }

 private:
  Transport MakeTransport() {
    Transport t;
    t.probe = [this](StreamId id) {
      const Value v = values_[id];
      filters_.at(id).SyncReference(v);
      return v;
    };
    t.region_probe = [this](StreamId id,
                            const Interval& region) -> std::optional<Value> {
      const Value v = values_[id];
      if (!region.Contains(v)) return std::nullopt;
      filters_.at(id).SyncReference(v);
      return v;
    };
    t.deploy = [this](StreamId id, const FilterConstraint& constraint) {
      filters_.Deploy(id, constraint, values_[id]);
    };
    return t;
  }

  std::vector<Value> values_;
  FilterBank filters_;
  MessageStats stats_;
  ServerContext ctx_;
};

}  // namespace asf

#endif  // ASF_TESTS_TEST_HARNESS_H_
