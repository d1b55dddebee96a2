#ifndef ASF_STREAM_TRACE_SOURCE_H_
#define ASF_STREAM_TRACE_SOURCE_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "stream/stream_set.h"

/// \file
/// Trace-driven streams: replay a time-ordered sequence of (time, stream,
/// value) records. Used with the synthetic TCP trace (src/trace) and with
/// any externally supplied trace file.

namespace asf {

/// One value update in a trace.
struct TraceRecord {
  SimTime time = 0;
  StreamId stream = 0;
  Value value = 0;

  bool operator==(const TraceRecord& other) const {
    return time == other.time && stream == other.stream &&
           value == other.value;
  }
};

/// A full trace: the stream population plus the update sequence.
struct TraceData {
  std::size_t num_streams = 0;
  /// Value of each stream before the first record (defaults to 0 for all
  /// when empty).
  std::vector<Value> initial_values;
  /// Update records; must be sorted by time (ties in record order).
  std::vector<TraceRecord> records;

  /// Checks that every record names a known stream, that record times are
  /// non-negative and sorted, and that every time, value and initial value
  /// is finite.
  Status Validate() const;

  /// Latest record time (0 if empty).
  SimTime Duration() const {
    return records.empty() ? 0 : records.back().time;
  }
};

/// Streams that replay a TraceData. The trace is borrowed and must outlive
/// the stream set.
class TraceStreams : public StreamSet {
 public:
  explicit TraceStreams(const TraceData* trace);

  void Start(Scheduler* scheduler, SimTime horizon) override;

 private:
  /// Replays records[next_] and any further records at the same timestamp.
  void ReplayNext(Scheduler* scheduler, SimTime horizon);

  const TraceData* trace_;
  std::size_t next_ = 0;
};

}  // namespace asf

#endif  // ASF_STREAM_TRACE_SOURCE_H_
