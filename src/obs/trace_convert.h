#ifndef ASF_OBS_TRACE_CONVERT_H_
#define ASF_OBS_TRACE_CONVERT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"

/// \file
/// Offline side of the tracer: reads the binary file Tracer::WriteBinary
/// produced and renders it as Chrome `trace_event` JSON, loadable in
/// chrome://tracing or Perfetto. Shared by tools/asf_trace and the
/// round-trip tests.

namespace asf {
namespace obs {

/// A trace as read back from disk.
struct TraceFileData {
  std::uint64_t dropped = 0;
  std::vector<TraceRecord> records;
};

/// Parses a binary trace file (format: trace.cc). Validates the magic
/// and the record count against the file size.
Result<TraceFileData> ReadTraceBinary(const std::string& path);

/// Renders the trace as a Chrome trace_event JSON document:
/// {"traceEvents": [...]}: a thread-name metadata event, then one instant
/// event (ph "i", scope "t") per record on that one thread. Sim-time maps
/// to the `ts` microsecond axis via `ts_scale` (default: 1 sim-time unit
/// = 1 second = 1e6 µs).
std::string ChromeTraceJson(const TraceFileData& data, double ts_scale = 1e6);

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_TRACE_CONVERT_H_
