#include "obs/profiler.h"

#include <atomic>
#include <cstdio>
#include <sstream>

namespace asf {
namespace obs {
namespace {

std::atomic<std::uint64_t> g_next_profiler_id{1};

/// Single-slot thread-local cache: the last (profiler id, state) pair
/// this thread resolved. Ids are process-unique and never recycled, so
/// a hit is always valid; a miss falls back to the registry scan.
struct TlsCache {
  std::uint64_t profiler_id = 0;
  void* state = nullptr;
};
thread_local TlsCache g_tls_cache;

}  // namespace

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

Profiler::Profiler()
    : id_(g_next_profiler_id.fetch_add(1, std::memory_order_relaxed)) {}

Profiler::~Profiler() = default;

Profiler::ThreadState* Profiler::StateForThisThread() {
  if (g_tls_cache.profiler_id == id_) {
    return static_cast<ThreadState*>(g_tls_cache.state);
  }
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  ThreadState* st = nullptr;
  for (const auto& existing : states_) {
    if (existing->tid == tid) {
      st = existing.get();
      break;
    }
  }
  if (st == nullptr) {
    states_.push_back(std::make_unique<ThreadState>());
    st = states_.back().get();
    st->tid = tid;
  }
  g_tls_cache.profiler_id = id_;
  g_tls_cache.state = st;
  return st;
}

ProfileReport Profiler::Merged() const {
  ProfileReport report;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& st : states_) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kNumPhases);
         ++i) {
      report.seconds[i] += st->accum[i];
    }
  }
  return report;
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
