#ifndef ASF_STREAM_STREAM_SET_H_
#define ASF_STREAM_STREAM_SET_H_

#include <functional>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/scheduler.h"

/// \file
/// Stream sources: the entities S = {S_1 ... S_n} whose values the server
/// monitors (paper §3.1). A StreamSet owns the TRUE current value of every
/// stream and drives value updates through the simulation scheduler; the
/// engine subscribes an update handler that runs each new value through the
/// stream's client-side filter.

namespace asf {

/// Base class for a collection of value-producing streams.
class StreamSet {
 public:
  /// Handler invoked on every value change: (stream, new value, time).
  using UpdateHandler = std::function<void(StreamId, Value, SimTime)>;

  virtual ~StreamSet() = default;

  std::size_t size() const { return values_.size(); }

  Value value(StreamId id) const {
    ASF_DCHECK(id < values_.size());
    return values_[id];
  }

  /// The true values of all streams, indexed by StreamId. The oracle reads
  /// this directly; protocols must not (they see values only through
  /// messages).
  const std::vector<Value>& values() const { return values_; }

  void set_update_handler(UpdateHandler handler) {
    handler_ = std::move(handler);
  }

  /// Schedules this set's update events on `scheduler`. Events
  /// self-perpetuate (or are pre-scheduled) up to `horizon`.
  virtual void Start(Scheduler* scheduler, SimTime horizon) = 0;

 protected:
  explicit StreamSet(std::size_t num_streams) : values_(num_streams, 0.0) {}

  /// Records a new value and notifies the handler.
  void ApplyUpdate(StreamId id, Value value, SimTime t) {
    ASF_DCHECK(id < values_.size());
    values_[id] = value;
    if (handler_) handler_(id, value, t);
  }

  /// Sets an initial value without treating it as an update (no handler
  /// call); used during construction.
  void SetInitialValue(StreamId id, Value value) {
    ASF_DCHECK(id < values_.size());
    values_[id] = value;
  }

 private:
  std::vector<Value> values_;
  UpdateHandler handler_;
};

}  // namespace asf

#endif  // ASF_STREAM_STREAM_SET_H_
