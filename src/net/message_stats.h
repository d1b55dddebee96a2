#ifndef ASF_NET_MESSAGE_STATS_H_
#define ASF_NET_MESSAGE_STATS_H_

#include <array>
#include <cstdint>

#include "net/message.h"

/// \file
/// Per-type, per-phase message accounting — the experiment currency of the
/// whole paper.

namespace asf {

/// Message counters, split by MessageType and MessagePhase.
class MessageStats {
 public:
  MessageStats() { Reset(); }

  /// Sets the phase subsequent Count() calls are accounted under.
  void set_phase(MessagePhase phase) { phase_ = phase; }
  MessagePhase phase() const { return phase_; }

  /// Counts `n` messages of the given type in the current phase.
  void Count(MessageType type, std::uint64_t n = 1) {
    counts_[static_cast<int>(phase_)][static_cast<int>(type)] += n;
  }

  std::uint64_t count(MessagePhase phase, MessageType type) const {
    return counts_[static_cast<int>(phase)][static_cast<int>(type)];
  }
  /// The counter itself: the record field walk decodes through it.
  std::uint64_t& count(MessagePhase phase, MessageType type) {
    return counts_[static_cast<int>(phase)][static_cast<int>(type)];
  }

  /// Total messages in one phase.
  std::uint64_t PhaseTotal(MessagePhase phase) const;

  /// The paper's headline metric: all messages after initialization.
  std::uint64_t MaintenanceTotal() const {
    return PhaseTotal(MessagePhase::kMaintenance);
  }

  std::uint64_t InitTotal() const { return PhaseTotal(MessagePhase::kInit); }

  std::uint64_t Total() const { return InitTotal() + MaintenanceTotal(); }

  void Reset();

 private:
  std::array<std::array<std::uint64_t, kNumMessageTypes>, kNumMessagePhases>
      counts_;
  MessagePhase phase_ = MessagePhase::kInit;
};

}  // namespace asf

#endif  // ASF_NET_MESSAGE_STATS_H_
