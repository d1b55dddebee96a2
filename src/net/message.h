#ifndef ASF_NET_MESSAGE_H_
#define ASF_NET_MESSAGE_H_

#include <cstdint>
#include <string_view>

/// \file
/// Message taxonomy of the distributed stream model (paper Figure 3).
///
/// The paper's performance metric is "the number of maintenance messages
/// required during the lifetime of the query" (§6), where for the no-filter
/// baseline "a maintenance message is essentially an update message from a
/// stream source". We type every message so harnesses can report the
/// breakdown; every directed message between the server and one stream
/// counts as one (see DESIGN.md §3 on the broadcast-cost ablation).

namespace asf {

/// Kind of a message exchanged between the server and a stream source.
enum class MessageType : int {
  /// stream → server: value crossed the filter constraint (or no filter is
  /// installed and the value changed).
  kValueUpdate = 0,
  /// server → stream: request the current value.
  kProbeRequest = 1,
  /// stream → server: value sent in reply to a probe (plain or regional).
  kProbeResponse = 2,
  /// server → stream: "respond if your value lies in this region" (RTP
  /// Case 2 search-region expansion, Figure 5 step 4(I)(iii)).
  kRegionProbeRequest = 3,
  /// server → stream: install a new filter constraint.
  kFilterDeploy = 4,
};

inline constexpr int kNumMessageTypes = 5;

/// Phase a message is accounted under. Only the initial deployment at query
/// start counts as kInit; everything afterwards (including protocol
/// re-initializations) is maintenance, which is the paper's metric.
enum class MessagePhase : int {
  kInit = 0,
  kMaintenance = 1,
};

inline constexpr int kNumMessagePhases = 2;

/// Short stable name for a message type ("update", "probe_req", ...).
/// Inline, so a field walk that never reads names does not call it.
constexpr std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kValueUpdate:
      return "update";
    case MessageType::kProbeRequest:
      return "probe_req";
    case MessageType::kProbeResponse:
      return "probe_resp";
    case MessageType::kRegionProbeRequest:
      return "region_probe";
    case MessageType::kFilterDeploy:
      return "deploy";
  }
  return "unknown";
}

}  // namespace asf

#endif  // ASF_NET_MESSAGE_H_
