#include "stream/trace_source.h"

#include <cmath>
#include <string>
#include <utility>

namespace asf {

Result<TraceData> TraceData::Make(std::size_t num_streams,
                                  std::vector<Value> initial_values,
                                  std::vector<TraceRecord> records) {
  if (num_streams == 0 || num_streams > kMaxStreams) {
    return Status::InvalidArgument("trace num_streams must lie in [1, " +
                                   std::to_string(kMaxStreams) + "]");
  }
  if (!initial_values.empty() && initial_values.size() != num_streams) {
    return Status::InvalidArgument(
        "initial_values must be empty or one per stream");
  }
  // One pass: a NaN time fails the ordering test, non-finite values are
  // OR-accumulated and reported after the loop, and an infinite time can
  // only sort last, so checking the final time covers it.
  bool non_finite = false;
  for (const Value v : initial_values) non_finite |= !std::isfinite(v);
  SimTime last = 0;
  for (const TraceRecord& rec : records) {
    if (rec.stream >= num_streams) {
      return Status::OutOfRange("trace record references unknown stream");
    }
    if (!(rec.time >= last)) {
      if (std::isnan(rec.time)) {
        return Status::InvalidArgument("trace record time must not be NaN");
      }
      if (rec.time < 0) {
        return Status::InvalidArgument("trace record time must be >= 0");
      }
      return Status::InvalidArgument("trace records must be time-sorted");
    }
    non_finite |= !std::isfinite(rec.value);
    last = rec.time;
  }
  if (non_finite) {
    return Status::InvalidArgument("trace values must be finite");
  }
  if (std::isinf(last)) {
    return Status::InvalidArgument("trace record times must be finite");
  }
  TraceData trace;
  trace.num_streams_ = num_streams;
  trace.initial_values_ = std::move(initial_values);
  trace.records_ = std::move(records);
  return trace;
}

TraceStreams::TraceStreams(const TraceData* trace)
    : StreamSet(trace->num_streams()), trace_(trace) {
  for (StreamId id = 0; id < trace_->initial_values().size(); ++id) {
    SetInitialValue(id, trace_->initial_values()[id]);
  }
}

void TraceStreams::ReplayNext(Scheduler* scheduler, SimTime horizon) {
  const std::vector<TraceRecord>& records = trace_->records();
  ASF_DCHECK(next_ < records.size());
  const TraceRecord& rec = records[next_];
  ++next_;
  ApplyUpdate(rec.stream, rec.value, rec.time);
  if (next_ < records.size() && records[next_].time <= horizon) {
    scheduler->Rearm(records[next_].time);
  }
}

void TraceStreams::Start(Scheduler* scheduler, SimTime horizon) {
  ASF_CHECK(scheduler != nullptr);
  next_ = 0;
  if (trace_->records().empty()) return;
  const SimTime t = trace_->records().front().time;
  if (t > horizon) return;
  scheduler->ScheduleAt(
      t, [this, scheduler, horizon] { ReplayNext(scheduler, horizon); });
}

}  // namespace asf
