#include "net/message_stats.h"

namespace asf {

std::uint64_t MessageStats::PhaseTotal(MessagePhase phase) const {
  std::uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    total += counts_[static_cast<int>(phase)][t];
  }
  return total;
}

void MessageStats::Reset() {
  for (auto& phase : counts_) phase.fill(0);
  phase_ = MessagePhase::kInit;
}

}  // namespace asf
