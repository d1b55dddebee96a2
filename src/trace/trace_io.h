#ifndef ASF_TRACE_TRACE_IO_H_
#define ASF_TRACE_TRACE_IO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "stream/trace_source.h"

/// \file
/// CSV persistence for traces, so that an externally obtained trace (e.g.
/// the real LBL data, if available) can be plugged into every harness that
/// otherwise uses the synthetic generator.
///
/// Format:
///   line 1:  "num_streams,<n>"
///   line 2:  "initial,<v0>,<v1>,...,<v_{n-1}>"   (optional)
///   rest:    "<time>,<stream>,<value>" records, time-sorted.

namespace asf {

/// Writes a trace to `path`. Overwrites any existing file.
Status WriteTraceCsv(const TraceData& trace, const std::string& path);

/// Reads a trace written by WriteTraceCsv (or hand-authored in the same
/// format). Checks it as TraceData::Make does, the one check it gets.
Result<TraceData> ReadTraceCsv(const std::string& path);

}  // namespace asf

#endif  // ASF_TRACE_TRACE_IO_H_
