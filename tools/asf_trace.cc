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
  --summary             print per-ring / per-type record counts

At least one of --out / --summary is required. The JSON loads in
chrome://tracing or Perfetto; each ring renders as its own thread
track, sim-time mapped to the microsecond axis via --ts-scale.
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
    for (const obs::TraceFileRing& ring : data.rings) {
      for (const obs::TraceRecord& record : ring.records) {
        if (record.type <
            static_cast<std::uint16_t>(obs::TraceEventType::kNumTypes)) {
          ++by_type[record.type];
        }
      }
    }
    TextTable table({"ring", "records", "dropped"});
    for (std::size_t r = 0; r < data.rings.size(); ++r) {
      table.AddRow({Fmt("%zu", r), Fmt("%zu", data.rings[r].records.size()),
                    Fmt("%llu", (unsigned long long)data.rings[r].dropped)});
    }
    std::printf("%s\n", table.ToString().c_str());
    TextTable types({"event", "count"});
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(obs::TraceEventType::kNumTypes); ++t) {
      if (by_type[t] == 0) continue;
      types.AddRow(
          {obs::TraceEventTypeName(static_cast<obs::TraceEventType>(t)),
           Fmt("%llu", (unsigned long long)by_type[t])});
    }
    std::printf("%s", types.ToString().c_str());
    std::printf("total: %llu records, %llu dropped\n",
                (unsigned long long)data.total_records(),
                (unsigned long long)data.total_dropped());
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
    std::printf("wrote %s (%llu events)\n", out.c_str(),
                (unsigned long long)data.total_records());
  }
  return Status::OK();
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) {
  auto flags = asf::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (const asf::Status known = flags->RejectUnknown(asf::kKnownFlags);
      !known.ok()) {
    std::fprintf(stderr, "%s\n(try --help)\n", known.ToString().c_str());
    return 2;
  }
  if (flags->Has("help")) {
    std::fputs(asf::kHelp, stdout);
    return 0;
  }
  const asf::Status status = asf::RunFromFlags(*flags);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n(try --help)\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
