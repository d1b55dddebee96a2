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

/// One ring as read back from disk.
struct TraceFileRing {
  std::uint64_t dropped = 0;
  std::vector<TraceRecord> records;
};

struct TraceFileData {
  std::vector<TraceFileRing> rings;

  std::uint64_t total_records() const {
    std::uint64_t total = 0;
    for (const TraceFileRing& ring : rings) total += ring.records.size();
    return total;
  }
  std::uint64_t total_dropped() const {
    std::uint64_t total = 0;
    for (const TraceFileRing& ring : rings) total += ring.dropped;
    return total;
  }
};

/// Parses a binary trace file (format: trace.cc). Validates the magic
/// and record counts against the file size.
Result<TraceFileData> ReadTraceBinary(const std::string& path);

/// Renders the trace as a Chrome trace_event JSON document:
/// {"traceEvents": [...]} with one instant event (ph "i", scope "t") per
/// record. Sim-time maps to the `ts` microsecond axis via `ts_scale`
/// (default: 1 sim-time unit = 1 second = 1e6 µs); each ring becomes a
/// named thread (tid = ring index) so each ring's timeline renders as a
/// separate track.
std::string ChromeTraceJson(const TraceFileData& data, double ts_scale = 1e6);

/// Convenience: ReadTraceBinary + ChromeTraceJson + write to `out_path`.
Status WriteChromeTraceJson(const std::string& in_path,
                            const std::string& out_path,
                            double ts_scale = 1e6);

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_TRACE_CONVERT_H_
