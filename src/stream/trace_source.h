#ifndef ASF_STREAM_TRACE_SOURCE_H_
#define ASF_STREAM_TRACE_SOURCE_H_

#include <vector>

#include "common/result.h"
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
///
/// A TraceData is valid by construction. It is checked once, where it is
/// built or read — TraceData::Make for a hand-built trace,
/// GenerateTcpTrace, ReadTraceCsv — and is immutable after that, so the
/// sources that replay it and the runs that validate their config scan
/// nothing.
class TraceData {
 public:
  /// Builds a trace after checking that `num_streams` lies in
  /// [1, kMaxStreams], that `initial_values` is empty or holds one value
  /// per stream, that every record names a known stream, that record
  /// times are non-negative and sorted (ties keep record order), and
  /// that every time, value and initial value is finite.
  static Result<TraceData> Make(std::size_t num_streams,
                                std::vector<Value> initial_values,
                                std::vector<TraceRecord> records);

  std::size_t num_streams() const { return num_streams_; }

  /// Value of each stream before the first record (0 for all when
  /// empty).
  const std::vector<Value>& initial_values() const { return initial_values_; }

  /// Update records, sorted by time.
  const std::vector<TraceRecord>& records() const { return records_; }

  /// Latest record time (0 if empty).
  SimTime Duration() const {
    return records_.empty() ? 0 : records_.back().time;
  }

 private:
  TraceData() = default;

  std::size_t num_streams_ = 0;
  std::vector<Value> initial_values_;
  std::vector<TraceRecord> records_;
};

/// Streams that replay a TraceData. The trace is borrowed and must outlive
/// the stream set. Replay is one scheduler event for the whole run: a
/// cursor over the records that re-arms itself (Scheduler::Rearm) at the
/// next record's time.
class TraceStreams : public StreamSet {
 public:
  explicit TraceStreams(const TraceData* trace);

  void Start(Scheduler* scheduler, SimTime horizon) override;

 private:
  /// Replays the one record records()[next_] and re-arms the cursor at
  /// the following record's time, if that lies within `horizon`.
  void ReplayNext(Scheduler* scheduler, SimTime horizon);

  const TraceData* trace_;
  std::size_t next_ = 0;
};

}  // namespace asf

#endif  // ASF_STREAM_TRACE_SOURCE_H_
