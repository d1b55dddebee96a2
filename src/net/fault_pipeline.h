#ifndef ASF_NET_FAULT_PIPELINE_H_
#define ASF_NET_FAULT_PIPELINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/network_model.h"

/// \file
/// Fault injection over any base delivery model, plus the
/// disruption-tolerant control plane that survives it (DESIGN.md §11).
///
/// The pipeline is the fault stage of one NetworkModel, which owns it
/// and calls it directly; it works on that model's scheduler, sinks,
/// NetStats and in-flight ledger. Updates keep riding the model's data
/// plane (batching, queueing and latency behave exactly as configured);
/// the fault stages apply at the model's *egress* — the instant it would
/// hand a wire message to the server — in a fixed order: partition check,
/// loss draw, reorder hold. Held messages and deploy/ack copies in transit
/// count in the model's ledger like any other wire message. The control
/// plane the pipeline owns outright:
///
///  * deploys become a retransmitting state machine per (query, stream)
///    channel — sequence numbers, transport acks, per-request timeout
///    with capped exponential backoff (base adapted per link from an
///    RFC 6298 SRTT/RTTVAR estimate over Karn-filtered acks unless a
///    fixed `rto:t` pins it), duplicate suppression at the source,
///    last-writer-wins supersession at the server;
///  * probes stay zero-time RPCs but draw the same loss/partition
///    processes, retry a bounded number of times, and fail over to the
///    server's cached value when the link is down;
///  * at every partition up-edge the sources run a summary-vector
///    reconciliation exchange: each reports its current value (the
///    server refreshes every live query's view) and the server replays
///    still-unacked constraint installs over the reliable handshake.
///
/// Every random decision comes from one decorrelated RNG substream whose
/// draw sites occur in event order, so a (config, seed) pair fully
/// determines the fault schedule under any composite configuration.
namespace asf {

/// RFC 6298 round-trip-time estimator for one control-plane link:
/// SRTT/RTTVAR exponential smoothing (gains 1/8 and 1/4), with Karn's
/// rule applied by the caller — retransmitted exchanges are never
/// sampled, so a retransmit ack can't be mistaken for a fast original.
class RttEstimator {
 public:
  /// Folds in one measurement. The first sample initialises srtt = R,
  /// rttvar = R/2 (RFC 6298 §2.2); later samples smooth.
  void AddSample(double rtt) {
    if (!has_sample_) {
      has_sample_ = true;
      srtt_ = rtt;
      rttvar_ = rtt / 2.0;
      return;
    }
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt);
    srtt_ = 0.875 * srtt_ + 0.125 * rtt;
  }

  bool has_sample() const { return has_sample_; }
  double srtt() const { return srtt_; }
  double rttvar() const { return rttvar_; }

  /// The retransmission timeout the estimate implies:
  /// clamp(srtt + 4·rttvar, min_rto, max_rto). Meaningful only once
  /// has_sample().
  double Rto(double min_rto, double max_rto) const {
    return std::min(max_rto, std::max(min_rto, srtt_ + 4.0 * rttvar_));
  }

 private:
  bool has_sample_ = false;
  double srtt_ = 0;
  double rttvar_ = 0;
};

class FaultPipeline {
 public:
  using Payload = NetworkModel::Payload;

  /// `config` must have HasFaults(); `net` is the model the stage belongs
  /// to, and must outlive it.
  FaultPipeline(const NetConfig& config, NetworkModel& net,
                std::uint64_t seed);
  FaultPipeline(const FaultPipeline&) = delete;
  FaultPipeline& operator=(const FaultPipeline&) = delete;

  /// Egress of one update wire message the model is about to deliver at
  /// `at`: drops it, holds it back for reordering (delivering whatever
  /// that releases), or returns true for the model to deliver it now.
  bool Egress(StreamId id, std::vector<Payload>& payloads, SimTime at);
  /// The model's SendDeploy: restarts the (slot, id) channel and
  /// transmits the install.
  void SendDeploy(std::size_t slot, StreamId id,
                  const FilterConstraint& constraint, SimTime now);
  /// The model's ControlRpc after it counted the exchange: false when the
  /// link is down or every bounded attempt was lost.
  bool ControlRpc(StreamId id, SimTime now);
  /// Schedules the partition up-edge reconnect exchanges.
  void StartRun(SimTime horizon);
  /// Counts the deploy channels still un-acked at the horizon.
  void Finalize();

 private:
  /// Per-(link, direction) Gilbert-Elliott loss chain; lazily entered at
  /// its stationary distribution on first use.
  struct GeChain {
    bool init = false;
    bool bad = false;
  };

  /// A surviving update wire message held back for bounded reordering.
  /// A message with wire seqno s and hold draw h releases once the link's
  /// latest survivor seqno reaches its `key` = s + h (ties release in
  /// seqno order), so at most k later messages can ever overtake it; what
  /// is still held at the horizon counts as in flight.
  struct Held {
    std::vector<Payload> payloads;
    std::uint64_t crossings = 0;
    std::uint64_t seq = 0;
    std::uint64_t key = 0;
  };

  /// Retransmitting deploy channel, one per (query slot, stream) pair.
  /// `seq` is the last install the server issued, `applied_seq` the last
  /// the source applied; `pending` means the latest install is un-acked
  /// and a retransmit timer is live. `sent_at` / `retransmitted` feed the
  /// adaptive RTO estimator: an ack is RTT-sampled only when the current
  /// seq was never retransmitted (Karn's rule).
  struct Channel {
    std::size_t slot = 0;
    StreamId id = 0;
    std::uint64_t seq = 0;
    std::uint64_t applied_seq = 0;
    FilterConstraint constraint;
    bool pending = false;
    std::uint32_t attempt = 0;
    EventId timer = 0;
    bool timer_armed = false;
    SimTime sent_at = 0;
    bool retransmitted = false;
  };

  /// One deploy copy on the wire. The constraint travels as its interval
  /// bounds plus flag bits, so the arrival event's capture (`this` and
  /// one copy) fits EventCallback's inline buffer: no allocation per copy.
  struct DeployCopy {
    std::uint64_t seq = 0;
    Value lo = 0;
    Value hi = 0;
    std::size_t slot = 0;
    StreamId id = 0;
    bool has_filter = false;
    bool empty = false;
    bool want_ack = false;

    FilterConstraint constraint() const {
      if (!has_filter) return FilterConstraint::NoFilter();
      return FilterConstraint::Range(empty ? Interval::Never()
                                           : Interval(lo, hi));
    }
  };

  /// The channel of (slot, id), growing the table on first use. Growth
  /// moves channels: hold the reference only until the next call.
  Channel& ChannelAt(std::size_t slot, StreamId id);

  /// True when the partition schedule has every link up at `t` (links are
  /// down in [t0,t1), [t2,t3), ...).
  bool LinkUp(SimTime t) const;
  void DeliverStashed(StreamId id, Held& held, SimTime at);
  bool LossDraw(std::vector<GeChain>* chains, StreamId id);
  /// Schedules `fn` one control-plane transit after `now`: the base's
  /// latency (0 unless it is latency:<d>[:<j>]) plus a jitter draw from
  /// the pipeline RNG. The copy counts in the model's ledger until it
  /// arrives.
  void ScheduleCtl(SimTime now, EventCallback fn);
  void Transmit(Channel& ch, SimTime now, bool reliable);
  void ArmTimer(Channel& ch, SimTime now);
  void OnDeployArrival(const DeployCopy& copy);
  void OnDeployAck(std::size_t slot, StreamId id, std::uint64_t seq);
  void OnDeployTimeout(std::size_t slot, StreamId id);
  void OnReconnect(SimTime t);

  const NetConfig config_;
  NetworkModel& net_;
  Rng rng_;
  const double rto_initial_;
  const double rto_cap_;
  /// True when no fixed `rto:t` pins the base and adaptive estimation is
  /// enabled: ArmTimer derives its base from rtt_ once a link has a
  /// sample (DESIGN.md §11).
  const bool rto_adaptive_;
  /// Per-link (stream id) RTT estimators, shared across query slots —
  /// the round trip is a property of the link, not of the channel.
  std::vector<RttEstimator> rtt_;

  std::vector<GeChain> up_;    ///< source→server loss chains
  std::vector<GeChain> down_;  ///< server→source loss chains
  std::vector<std::uint64_t> msg_seq_;  ///< per-link update wire seqno
  /// Per-link reorder stash, sorted by (key, seq).
  std::vector<std::vector<Held>> held_;
  /// Deploy channels indexed [slot][stream id], rows grown on first use
  /// (every refresh deploys to all streams, so rows fill densely). Reconnect
  /// replay and the end-of-run count walk them in ascending (slot, id)
  /// order.
  std::vector<std::vector<Channel>> channels_;
};

}  // namespace asf

#endif  // ASF_NET_FAULT_PIPELINE_H_
