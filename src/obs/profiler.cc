#include "obs/profiler.h"

#include <cstdio>
#include <sstream>

namespace asf {
namespace obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kOther:
      return "other";
    case Phase::kDispatch:
      return "dispatch";
    case Phase::kIndexRebuild:
      return "index_rebuild";
    case Phase::kNetFlush:
      return "net_flush";
    case Phase::kSpillIo:
      return "spill_io";
    case Phase::kNumPhases:
      break;
  }
  return "unknown";
}

std::string Profiler::FormatTable(double wall_seconds) const {
  const ProfileReport report = Merged();
  std::ostringstream out;
  char buf[128];
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kNumPhases);
       ++i) {
    if (report.seconds[i] <= 0) continue;
    const double pct =
        wall_seconds > 0 ? 100.0 * report.seconds[i] / wall_seconds : 0.0;
    std::snprintf(buf, sizeof(buf), "obs profile %-13s %10.6f s %6.1f%%\n",
                  PhaseName(static_cast<Phase>(i)), report.seconds[i], pct);
    out << buf;
  }
  const double total = report.total();
  const double coverage =
      wall_seconds > 0 ? 100.0 * total / wall_seconds : 0.0;
  std::snprintf(buf, sizeof(buf),
                "obs profile %-13s %10.6f s %6.1f%% of wall\n", "total",
                total, coverage);
  out << buf;
  return out.str();
}

std::string Profiler::ProfileJson() const {
  const ProfileReport report = Merged();
  std::ostringstream out;
  char buf[96];
  out << '{';
  bool first = true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kNumPhases);
       ++i) {
    if (report.seconds[i] <= 0) continue;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ",
                  PhaseName(static_cast<Phase>(i)), report.seconds[i]);
    out << buf;
    first = false;
  }
  std::snprintf(buf, sizeof(buf), "%s\"total\": %.17g", first ? "" : ", ",
                report.total());
  out << buf << '}';
  return out.str();
}

}  // namespace obs
}  // namespace asf
