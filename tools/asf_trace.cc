/// asf_trace — convert a binary sim-time event trace (written by
/// `asf_run --trace=FILE`) to Chrome trace_event JSON, loadable in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Examples:
///   asf_trace --in=run.trace --out=run.json
///   asf_trace --in=run.trace --out=run.json --ts-scale=1e3
///   asf_trace --in=run.trace --summary        # per-type counts only

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "metrics/table.h"
#include "obs/trace.h"
#include "obs/trace_convert.h"

namespace asf {
namespace {

constexpr const char* kHelp = R"(asf_trace -- binary event trace to Chrome trace_event JSON

  --in=FILE             binary trace (from asf_run --trace) [required]
  --out=FILE            Chrome trace_event JSON output path
  --ts-scale=S          microseconds per sim-time unit      [1e6]
  --summary             print per-type record counts

At least one of --out / --summary is required. The JSON loads in
chrome://tracing or Perfetto as one thread track, sim-time mapped to
the microsecond axis via --ts-scale. Only version-2 traces (this
build's asf_run --trace) convert; older dumps fail as corrupt.

Exit status: 0 after converting, 1 for a missing, unreadable or corrupt
trace or a rejected value, 2 for an unknown or malformed flag.
)";

/// Every flag kHelp lists; anything else is rejected, so a typo such as
/// --ts-scal fails instead of converting with the default scale.
const std::vector<std::string> kKnownFlags = {"help", "in", "out",
                                              "ts-scale", "summary"};

Status RunFromFlags(const Flags& flags) {
  if (!flags.Has("in")) {
    return Status::InvalidArgument("--in=FILE is required");
  }
  if (!flags.Has("out") && !flags.Has("summary")) {
    return Status::InvalidArgument("nothing to do: pass --out or --summary");
  }
  ASF_ASSIGN_OR_RETURN(const double ts_scale,
                       flags.GetDouble("ts-scale", 1e6));
  if (!(ts_scale > 0)) {
    return Status::InvalidArgument("--ts-scale must be positive");
  }
  ASF_ASSIGN_OR_RETURN(const obs::TraceFileData data,
                       obs::ReadTraceBinary(flags.GetString("in")));

  if (flags.Has("summary")) {
    std::uint64_t by_type[static_cast<std::size_t>(
        obs::TraceEventType::kNumTypes)] = {};
    for (const obs::TraceRecord& record : data.records) {
      if (record.type <
          static_cast<std::uint16_t>(obs::TraceEventType::kNumTypes)) {
        ++by_type[record.type];
      }
    }
    TextTable types({"event", "count"});
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(obs::TraceEventType::kNumTypes); ++t) {
      if (by_type[t] == 0) continue;
      types.AddRow(
          {obs::TraceEventTypeName(static_cast<obs::TraceEventType>(t)),
           Fmt("%llu", (unsigned long long)by_type[t])});
    }
    std::printf("%s", types.ToString().c_str());
    std::printf("total: %zu records, %llu dropped\n", data.records.size(),
                (unsigned long long)data.dropped);
  }

  if (flags.Has("out")) {
    const std::string out = flags.GetString("out");
    const std::string json = obs::ChromeTraceJson(data, ts_scale);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      return Status::IoError("cannot open " + out + " for writing");
    }
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !ok) {
      return Status::IoError("write failed: " + out);
    }
    std::printf("wrote %s (%zu events)\n", out.c_str(), data.records.size());
  }
  return Status::OK();
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) {
  return asf::RunTool(argc, argv, asf::kKnownFlags, asf::kHelp,
                      asf::RunFromFlags);
}
