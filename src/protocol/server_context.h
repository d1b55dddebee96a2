#ifndef ASF_PROTOCOL_SERVER_CONTEXT_H_
#define ASF_PROTOCOL_SERVER_CONTEXT_H_

#include <functional>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/interval.h"
#include "common/types.h"
#include "filter/constraint.h"
#include "net/message_stats.h"

/// \file
/// The server's view of the distributed system (paper Figure 3): a cache of
/// the last value each stream reported, plus the messaging primitives the
/// constraint-assignment unit uses. Every primitive is accounted in
/// MessageStats; protocols have NO other way to observe stream values, so
/// message counts are correct by construction. The cache holds values
/// alone and no primitive takes a time: the protocols react to messages
/// and never read a clock (DESIGN.md §1). Values are scalars: both 2-D
/// query classes (paper §7) reduce to a 1-D query over a derived scalar —
/// a point's distance to the k-NN query point, or its signed distance to a
/// query rectangle (geo/distance_streams.h) — so one context serves them.

namespace asf {

/// The wires. Implemented by the engine against the simulated stream set
/// and its filters; protocols never see the true values directly.
struct Transport {
  /// Requests the stream's current value (one request + one response). The
  /// implementation must also sync the stream's filter reference, since the
  /// probed value becomes the last-reported one. Returns nullopt when the
  /// delivery model lost the exchange (partitioned link, or bounded
  /// retransmission exhausted — DESIGN.md §11); the context then serves
  /// its cached value.
  std::function<std::optional<Value>(StreamId)> probe;

  /// Asks one stream "respond with your value if it lies in `region`". One
  /// request always; one response only if the value is inside (in which
  /// case the filter reference is synced).
  std::function<std::optional<Value>(StreamId, const Interval&)> region_probe;

  /// Installs a filter constraint at the stream (one message). The stream
  /// resets its membership reference against its current value locally.
  std::function<void(StreamId, const FilterConstraint&)> deploy;
};

/// How a server→all-streams transmission is charged (DESIGN.md §3). The
/// paper's counts are consistent with either reading in different places;
/// the default charges one message per recipient (no multicast in the
/// network), and `bench/ablation_broadcast` quantifies the alternative.
enum class BroadcastCostModel : int {
  kPerRecipient = 0,   ///< deploy-all to n streams costs n messages
  kSingleMessage = 1,  ///< a broadcast medium: one message reaches all
};

/// Per-query server state: value cache + counted messaging.
class ServerContext {
 public:
  ServerContext(std::size_t num_streams, Transport transport,
                MessageStats* stats,
                BroadcastCostModel broadcast = BroadcastCostModel::kPerRecipient)
      : transport_(std::move(transport)),
        stats_(stats),
        broadcast_(broadcast),
        cache_(num_streams, 0.0) {
    ASF_CHECK(stats != nullptr);
    ASF_CHECK(transport_.probe != nullptr);
    ASF_CHECK(transport_.region_probe != nullptr);
    ASF_CHECK(transport_.deploy != nullptr);
  }

  std::size_t num_streams() const { return cache_.size(); }

  /// Last value the server has seen from `id` (via update, probe, or
  /// region-probe response). Zero-initialized before any contact.
  Value cached(StreamId id) const {
    ASF_DCHECK(id < cache_.size());
    return cache_[id];
  }

  /// The whole cache, indexed by StreamId (for ranking helpers).
  const std::vector<Value>& cache() const { return cache_; }

  /// Records a value reported BY the stream (kValueUpdate was already
  /// counted by the engine when the filter fired).
  void RecordReport(StreamId id, Value v) {
    ASF_DCHECK(id < cache_.size());
    cache_[id] = v;
  }

  /// Probes one stream: counts a request + response, refreshes the cache.
  /// When the exchange is lost to the fault process the request is still
  /// charged but no response arrives: the stale cached value is served
  /// (the protocol proceeds, possibly conservatively) — this is what keeps
  /// every protocol terminating under arbitrary loss.
  Value Probe(StreamId id) {
    stats_->Count(MessageType::kProbeRequest);
    Receive(id, transport_.probe(id));
    return cached(id);
  }

  /// Probes every stream ("request all streams to send their values" —
  /// the first step of every protocol's Initialization phase). Under the
  /// broadcast model the request side costs one message; the n responses
  /// are always individual.
  void ProbeAll() {
    ChargeRequests(MessageType::kProbeRequest, cache_.size());
    for (StreamId id = 0; id < cache_.size(); ++id) {
      Receive(id, transport_.probe(id));
    }
  }

  /// Region probe of one stream: counts a request; counts a response and
  /// refreshes the cache only when the stream's value lies in `region`.
  /// Returns whether it responded.
  bool RegionProbe(StreamId id, const Interval& region) {
    stats_->Count(MessageType::kRegionProbeRequest);
    return Receive(id, transport_.region_probe(id, region));
  }

  /// Region probe of a group of streams ("the server queries the clients
  /// if their values are within R'", Figure 5 step 4(I)(iii)). Returns the
  /// responders. Under the broadcast model the request side costs one
  /// message for the whole group.
  std::vector<StreamId> RegionProbeGroup(const std::vector<StreamId>& targets,
                                         const Interval& region) {
    ChargeRequests(MessageType::kRegionProbeRequest, targets.size());
    std::vector<StreamId> responders;
    for (StreamId id : targets) {
      if (Receive(id, transport_.region_probe(id, region))) {
        responders.push_back(id);
      }
    }
    return responders;
  }

  /// Deploys a constraint to one stream (one message).
  void Deploy(StreamId id, const FilterConstraint& constraint) {
    ASF_DCHECK(id < cache_.size());
    stats_->Count(MessageType::kFilterDeploy);
    transport_.deploy(id, constraint);
  }

  /// Deploys the same constraint to every stream: n messages by default,
  /// one under the broadcast model (DESIGN.md §3).
  void DeployAll(const FilterConstraint& constraint) {
    ChargeRequests(MessageType::kFilterDeploy, cache_.size());
    for (StreamId id = 0; id < cache_.size(); ++id) {
      transport_.deploy(id, constraint);
    }
  }

  BroadcastCostModel broadcast_model() const { return broadcast_; }

  /// True when the run's delivery model may delay messages (DESIGN.md
  /// §9). Protocols consult this only to *relax* zero-delay belief
  /// assertions — e.g. "a member never reports an in-range value" holds
  /// under instant delivery but not while deploys or updates are in
  /// transit; their recovery paths handle the late messages either way.
  bool delayed_delivery() const { return delayed_delivery_; }
  void set_delayed_delivery(bool delayed) { delayed_delivery_ = delayed; }

  MessageStats* stats() { return stats_; }

 private:
  /// The response half of a probe exchange: when the stream answered
  /// with `v`, counts the response and refreshes the cache. Returns
  /// whether it answered.
  bool Receive(StreamId id, const std::optional<Value>& v) {
    if (!v.has_value()) return false;
    stats_->Count(MessageType::kProbeResponse);
    RecordReport(id, *v);
    return true;
  }

  /// Charges the request side of a transmission to `recipients` streams:
  /// one message per recipient, or one in all under the broadcast model.
  void ChargeRequests(MessageType type, std::size_t recipients) {
    if (recipients == 0) return;
    stats_->Count(type, broadcast_ == BroadcastCostModel::kSingleMessage
                            ? 1
                            : recipients);
  }

  Transport transport_;
  MessageStats* stats_;
  BroadcastCostModel broadcast_;
  bool delayed_delivery_ = false;
  std::vector<Value> cache_;
};

}  // namespace asf

#endif  // ASF_PROTOCOL_SERVER_CONTEXT_H_
