#include "net/fault_pipeline.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace asf {

namespace {

/// Bounded probe retry: after this many lost request/response exchanges
/// within one zero-time RPC the server fails over to its cached value.
constexpr std::uint32_t kMaxProbeAttempts = 8;

}  // namespace

FaultPipeline::FaultPipeline(const NetConfig& config, NetworkModel& net,
                             std::uint64_t seed)
    : config_(config),
      net_(net),
      rng_(seed),
      rto_initial_(config.RtoInitial()),
      rto_cap_(config.RtoMax()),
      rto_adaptive_(config.rto == 0 && config.rto_adaptive) {}

bool FaultPipeline::LinkUp(SimTime t) const {
  std::size_t edges = 0;
  while (edges < config_.partition.size() && config_.partition[edges] <= t) {
    ++edges;
  }
  return (edges % 2) == 0;
}

bool FaultPipeline::LossDraw(std::vector<GeChain>* chains, StreamId id) {
  if (config_.loss <= 0) return false;
  if (config_.loss_burst <= 1.0) return rng_.Bernoulli(config_.loss);
  if (id >= chains->size()) chains->resize(id + 1);
  GeChain& ch = (*chains)[id];
  if (!ch.init) {
    // Enter at the stationary distribution: P(bad) == overall loss rate.
    ch.init = true;
    ch.bad = rng_.Bernoulli(config_.loss);
  }
  const bool drop = ch.bad;
  if (ch.bad) {
    if (rng_.Bernoulli(1.0 / config_.loss_burst)) ch.bad = false;
  } else if (rng_.Bernoulli(config_.loss /
                            (config_.loss_burst * (1.0 - config_.loss)))) {
    ch.bad = true;
  }
  return drop;
}

FaultPipeline::Channel& FaultPipeline::ChannelAt(std::size_t slot,
                                                 StreamId id) {
  if (slot >= channels_.size()) channels_.resize(slot + 1);
  std::vector<Channel>& row = channels_[slot];
  if (id >= row.size()) row.resize(id + 1);
  return row[id];
}

void FaultPipeline::ScheduleCtl(SimTime now, EventCallback fn) {
  const bool delayed = config_.kind == NetConfig::Kind::kFixedLatency;
  const SimTime latency = delayed ? config_.latency : 0;
  SimTime d = latency;
  if (delayed && config_.jitter > 0) d += rng_.Uniform(0, config_.jitter);
  ++net_.pending_wire_;
  net_.ScheduleDelivery(now + d, latency, std::move(fn));
}

bool FaultPipeline::Egress(StreamId id, std::vector<Payload>& payloads,
                           SimTime at) {
  std::uint64_t crossings = 0;
  for (const Payload& p : payloads) crossings += p.crossings;
  NetStats& s = net_.stats_;
  if (!LinkUp(at)) {
    s.dropped_partition += crossings;
    ASF_TRACE_EVENT(net_.obs_tracer_, obs::TraceEventType::kWireDrop, at, id,
                    0, crossings);
    return false;
  }
  if (LossDraw(&up_, id)) {
    s.dropped_loss += crossings;
    ASF_TRACE_EVENT(net_.obs_tracer_, obs::TraceEventType::kWireDrop, at, id,
                    0, crossings);
    return false;
  }
  if (config_.reorder == 0) return true;

  // Bounded out-of-order delivery: stamp the link's wire sequence number
  // (the server suppresses payloads an overtaker already obsoleted) and
  // stash the message under release key seq + hold. Survivor seqnos are
  // consecutive per link, so a message releases exactly when the link's
  // latest survivor reaches its key — a later message j overtakes i only
  // if j + hold_j < i + hold_i, which caps the displacement at k.
  if (id >= msg_seq_.size()) msg_seq_.resize(id + 1, 0);
  const std::uint64_t seq = ++msg_seq_[id];
  for (Payload& p : payloads) p.seq = seq;
  const auto hold =
      static_cast<std::uint32_t>(rng_.UniformInt(0, config_.reorder));
  if (id >= held_.size()) held_.resize(id + 1);
  Held h;
  h.payloads = std::move(payloads);
  h.crossings = crossings;
  h.seq = seq;
  h.key = seq + hold;
  ++net_.pending_wire_;
  net_.pending_crossings_ += crossings;
  for (const Payload& p : h.payloads) net_.AddInFlight(p.slot);
  auto& q = held_[id];
  const auto pos = std::upper_bound(
      q.begin(), q.end(), h, [](const Held& a, const Held& b) {
        return a.key != b.key ? a.key < b.key : a.seq < b.seq;
      });
  q.insert(pos, std::move(h));
  while (!q.empty() && q.front().key <= seq) {
    Held ripe = std::move(q.front());
    q.erase(q.begin());
    DeliverStashed(id, ripe, at);
  }
  return false;
}

void FaultPipeline::DeliverStashed(StreamId id, Held& held, SimTime at) {
  --net_.pending_wire_;
  net_.pending_crossings_ -= held.crossings;
  for (const Payload& p : held.payloads) net_.SubInFlight(p.slot);
  // Staleness is sampled against the actual delivery time `at`.
  net_.AccountAndDeliver(id, held.payloads, at, /*sample_delay=*/true);
}

void FaultPipeline::SendDeploy(std::size_t slot, StreamId id,
                               const FilterConstraint& constraint,
                               SimTime now) {
  Channel& ch = ChannelAt(slot, id);
  ch.slot = slot;
  ch.id = id;
  if (ch.timer_armed) {
    net_.scheduler_->Cancel(ch.timer);
    ch.timer_armed = false;
  }
  // Last-writer-wins supersession: a fresh install restarts the channel;
  // acks for the superseded seq are ignored and the source applies only
  // monotonically newer installs.
  ++ch.seq;
  ch.constraint = constraint;
  ch.pending = true;
  ch.attempt = 0;
  ch.retransmitted = false;
  Transmit(ch, now, /*reliable=*/false);
}

void FaultPipeline::Transmit(Channel& ch, SimTime now, bool reliable) {
  NetStats& s = net_.stats_;
  ++s.deploy_attempts;
  const bool wire_ok = reliable || (LinkUp(now) && !LossDraw(&down_, ch.id));
  if (!wire_ok) {
    ++s.deploy_dropped;
  } else {
    const Interval& iv = ch.constraint.interval();
    const DeployCopy copy{ch.seq, iv.lo(), iv.hi(), ch.slot, ch.id,
                          ch.constraint.has_filter(), iv.empty(),
                          /*want_ack=*/!reliable};
    auto arrive = [this, copy] {
      --net_.pending_wire_;
      OnDeployArrival(copy);
    };
    static_assert(sizeof(arrive) <= EventCallback::kInlineSize,
                  "a deploy arrival must not allocate");
    ScheduleCtl(now, std::move(arrive));
  }
  if (reliable) {
    // The reconnect handshake is transactional: the replayed install is
    // considered acknowledged as part of the summary exchange.
    ch.pending = false;
    ch.attempt = 0;
  } else {
    ch.sent_at = now;
    ArmTimer(ch, now);
  }
}

void FaultPipeline::ArmTimer(Channel& ch, SimTime now) {
  // Adaptive mode: once the link has a Karn-filtered RTT sample, the
  // backoff base is its RFC 6298 estimate clamp(srtt + 4·rttvar, 1, cap)
  // instead of the conservative configured initial. The floor of 1 time
  // unit keeps instant-base configs on exactly the legacy schedule.
  double base = rto_initial_;
  if (rto_adaptive_ && ch.id < rtt_.size() && rtt_[ch.id].has_sample()) {
    base = rtt_[ch.id].Rto(1.0, rto_cap_);
  }
  const double backoff = std::min(
      rto_cap_, std::ldexp(base, std::min<std::uint32_t>(ch.attempt, 60)));
  ++ch.attempt;
  const std::size_t slot = ch.slot;
  const StreamId id = ch.id;
  ch.timer = net_.scheduler_->ScheduleAt(
      now + backoff, [this, slot, id] { OnDeployTimeout(slot, id); });
  ch.timer_armed = true;
}

void FaultPipeline::OnDeployArrival(const DeployCopy& copy) {
  const std::size_t slot = copy.slot;
  const StreamId id = copy.id;
  const std::uint64_t seq = copy.seq;
  const SimTime at = net_.scheduler_->now();
  NetStats& s = net_.stats_;
  Channel& ch = ChannelAt(slot, id);
  if (seq > ch.applied_seq) {
    ch.applied_seq = seq;
    ++s.deploy_messages;
    net_.deploy_sink_(slot, id, copy.constraint(), at);
  } else {
    ++s.deploy_dup_suppressed;
  }
  if (!copy.want_ack) return;
  // The ack rides the uplink and draws the same fault processes. It is
  // sent even when the install was a suppressed duplicate (or the query
  // has retired): the server must stop retransmitting either way.
  if (!LinkUp(at) || LossDraw(&up_, id)) {
    ++s.deploy_dropped;
    return;
  }
  ScheduleCtl(at, [this, slot, id, seq] {
    --net_.pending_wire_;
    OnDeployAck(slot, id, seq);
  });
}

void FaultPipeline::OnDeployAck(std::size_t slot, StreamId id,
                                std::uint64_t seq) {
  Channel& ch = ChannelAt(slot, id);
  NetStats& s = net_.stats_;
  if (ch.pending && seq == ch.seq) {
    // Karn's rule: only an exchange whose current seq was never
    // retransmitted yields an unambiguous round trip.
    if (rto_adaptive_ && !ch.retransmitted) {
      if (ch.id >= rtt_.size()) rtt_.resize(ch.id + 1);
      rtt_[ch.id].AddSample(net_.scheduler_->now() - ch.sent_at);
    }
    ch.pending = false;
    ++s.deploy_acks;
    if (ch.timer_armed) {
      net_.scheduler_->Cancel(ch.timer);
      ch.timer_armed = false;
    }
  } else {
    ++s.deploy_stale_acks;
  }
}

void FaultPipeline::OnDeployTimeout(std::size_t slot, StreamId id) {
  Channel& ch = ChannelAt(slot, id);
  ch.timer_armed = false;
  if (!ch.pending) return;
  ++net_.stats_.deploy_retransmits;
  ch.retransmitted = true;
  Transmit(ch, net_.scheduler_->now(), /*reliable=*/false);
}

bool FaultPipeline::ControlRpc(StreamId id, SimTime now) {
  NetStats& s = net_.stats_;
  if (!LinkUp(now)) {
    ++s.probe_failovers;
    return false;
  }
  for (std::uint32_t attempt = 0; attempt < kMaxProbeAttempts; ++attempt) {
    const bool request_lost = LossDraw(&down_, id);
    const bool response_lost = !request_lost && LossDraw(&up_, id);
    if (!request_lost && !response_lost) {
      s.probe_retransmits += attempt;
      return true;
    }
  }
  s.probe_retransmits += kMaxProbeAttempts - 1;
  ++s.probe_failovers;
  return false;
}

void FaultPipeline::StartRun(SimTime horizon) {
  if (!config_.reconcile) return;
  // Up-edges are the odd-indexed partition boundaries. Scheduling them
  // here — after the engine's oracle tick, before the first stream
  // event — fixes their FIFO seniority at equal timestamps.
  for (std::size_t i = 1; i < config_.partition.size(); i += 2) {
    const SimTime up = config_.partition[i];
    if (up > horizon) break;
    net_.scheduler_->ScheduleAt(up, [this, up] { OnReconnect(up); });
  }
}

void FaultPipeline::OnReconnect(SimTime t) {
  // Snapshot the channels that were pending before the exchange: installs
  // the engine issues *during* reconciliation are fresh traffic on a live
  // link and keep their ordinary retransmit path.
  std::vector<std::pair<std::size_t, StreamId>> pending;
  for (const std::vector<Channel>& row : channels_) {
    for (const Channel& ch : row) {
      if (ch.pending) pending.emplace_back(ch.slot, ch.id);
    }
  }
  if (net_.reconcile_sink_) net_.reconcile_sink_();
  NetStats& s = net_.stats_;
  for (const auto& [slot, id] : pending) {
    Channel& ch = ChannelAt(slot, id);
    if (!ch.pending) continue;
    if (ch.timer_armed) {
      net_.scheduler_->Cancel(ch.timer);
      ch.timer_armed = false;
    }
    ++s.reconcile_deploys;
    Transmit(ch, t, /*reliable=*/true);
  }
}

void FaultPipeline::Finalize() {
  for (const std::vector<Channel>& row : channels_) {
    for (const Channel& ch : row) {
      if (ch.pending) ++net_.stats_.deploy_unacked_at_end;
    }
  }
}

}  // namespace asf
