#include "net/network_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "net/fault_pipeline.h"

namespace asf {

Status NetConfig::Validate() const {
  const auto bad = [](double x) { return std::isnan(x) || x < 0; };
  if (bad(latency) || std::isinf(latency)) {
    return Status::InvalidArgument("net latency must be finite and >= 0");
  }
  if (bad(jitter) || std::isinf(jitter)) {
    return Status::InvalidArgument("net jitter must be finite and >= 0");
  }
  if (bad(delta) || std::isinf(delta)) {
    return Status::InvalidArgument("net batch delta must be finite and >= 0");
  }
  if (kind == Kind::kBoundedBandwidth && !(rate > 0)) {
    return Status::InvalidArgument("net bandwidth rate must be > 0");
  }
  if (std::isnan(loss) || loss < 0 || loss > 1) {
    return Status::InvalidArgument("net loss probability must be in [0, 1]");
  }
  if (!(loss_burst >= 1) || std::isinf(loss_burst)) {
    return Status::InvalidArgument("net loss burst must be finite and >= 1");
  }
  if (loss_burst > 1 && loss > 0) {
    // The Gilbert-Elliott chain needs a valid good->bad probability
    // loss / (burst * (1 - loss)), which requires loss <= burst/(burst+1).
    if (loss >= 1 || loss / (loss_burst * (1.0 - loss)) > 1.0) {
      return Status::InvalidArgument(
          "net loss/burst combination is infeasible: burst b needs "
          "loss <= b/(b+1)");
    }
  }
  for (std::size_t i = 0; i < partition.size(); ++i) {
    if (std::isnan(partition[i]) || std::isinf(partition[i]) ||
        partition[i] < 0 || (i > 0 && partition[i] <= partition[i - 1])) {
      return Status::InvalidArgument(
          "net partition boundaries must be finite, >= 0, and strictly "
          "increasing");
    }
  }
  if (std::isnan(rto) || std::isinf(rto) || rto < 0) {
    return Status::InvalidArgument("net rto must be finite and >= 0");
  }
  if (std::isnan(rto_max) || std::isinf(rto_max) || rto_max < 0) {
    return Status::InvalidArgument("net rto cap must be finite and >= 0");
  }
  if (rto_max > 0 && rto_max < RtoInitial()) {
    return Status::InvalidArgument(
        "net rto cap must be >= the initial timeout");
  }
  if (bad(comp) || std::isinf(comp)) {
    return Status::InvalidArgument(
        "net compensation margin must be finite and >= 0");
  }
  return Status::OK();
}

bool NetConfig::BaseDelays() const {
  switch (kind) {
    case Kind::kInstant:
      return false;
    case Kind::kFixedLatency:
      return latency > 0 || jitter > 0;
    case Kind::kBatched:
      return delta > 0;
    case Kind::kBoundedBandwidth:
      // Infinite rate means zero service time: instant semantics.
      return std::isfinite(rate);
  }
  return false;
}

bool NetConfig::DelaysDelivery() const {
  return HasFaults() || comp > 0 || BaseDelays();
}

double NetConfig::RtoInitial() const {
  if (rto > 0) return rto;
  return std::max(1.0, 4.0 * (latency + jitter));
}

double NetConfig::RtoMax() const {
  if (rto_max > 0) return rto_max;
  return 64.0 * RtoInitial();
}

std::string NetConfig::ToString() const {
  char buf[64];
  std::string out;
  switch (kind) {
    case Kind::kInstant:
      out = "instant";
      break;
    case Kind::kFixedLatency:
      if (jitter > 0) {
        std::snprintf(buf, sizeof(buf), "latency:%g:%g", latency, jitter);
      } else {
        std::snprintf(buf, sizeof(buf), "latency:%g", latency);
      }
      out = buf;
      break;
    case Kind::kBatched:
      std::snprintf(buf, sizeof(buf), "batch:%g", delta);
      out = buf;
      break;
    case Kind::kBoundedBandwidth:
      std::snprintf(buf, sizeof(buf), "bw:%g", rate);
      out = buf;
      break;
  }
  std::vector<std::string> stages;
  if (loss > 0) {
    if (loss_burst > 1) {
      std::snprintf(buf, sizeof(buf), "loss:%g:%g", loss, loss_burst);
    } else {
      std::snprintf(buf, sizeof(buf), "loss:%g", loss);
    }
    stages.push_back(buf);
  }
  if (reorder > 0) {
    std::snprintf(buf, sizeof(buf), "reorder:%u", reorder);
    stages.push_back(buf);
  }
  if (!partition.empty()) {
    std::string p = "partition:";
    for (std::size_t i = 0; i < partition.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%g", i ? "," : "", partition[i]);
      p += buf;
    }
    stages.push_back(std::move(p));
  }
  if (rto > 0) {
    if (rto_max > 0) {
      std::snprintf(buf, sizeof(buf), "rto:%g:%g", rto, rto_max);
    } else {
      std::snprintf(buf, sizeof(buf), "rto:%g", rto);
    }
    stages.push_back(buf);
  } else if (!rto_adaptive) {
    if (rto_max > 0) {
      std::snprintf(buf, sizeof(buf), "rto:fixed:%g", rto_max);
    } else {
      std::snprintf(buf, sizeof(buf), "rto:fixed");
    }
    stages.push_back(buf);
  } else if (rto_max > 0) {
    // Adaptive is the default; only an explicit cap needs a stage.
    std::snprintf(buf, sizeof(buf), "rto:adaptive:%g", rto_max);
    stages.push_back(buf);
  }
  if (comp > 0) {
    std::snprintf(buf, sizeof(buf), "comp:%g", comp);
    stages.push_back(buf);
  }
  if (!reconcile) stages.push_back("norecon");
  if (stages.empty()) return out;
  // An instant base is implied when fault stages are present, so the
  // canonical form round-trips ("loss:0.1" stays "loss:0.1").
  std::string joined = kind == Kind::kInstant ? "" : out;
  for (const std::string& s : stages) {
    if (!joined.empty()) joined += '+';
    joined += s;
  }
  return joined;
}

namespace {

/// Splits `s` on `sep` (keeping empty pieces, so "a++b" yields an empty
/// middle stage the caller can reject with a useful message).
std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t at = s.find(sep, pos);
    if (at == std::string::npos) {
      parts.push_back(s.substr(pos));
      break;
    }
    parts.push_back(s.substr(pos, at - pos));
    pos = at + 1;
  }
  return parts;
}

}  // namespace

Result<NetConfig> ParseNetSpec(const std::string& spec) {
  NetConfig config;
  bool have_base = false;
  std::vector<std::string> fault_stages;  // fault stages seen so far

  const auto number = [](const std::string& stage, const std::string& token,
                         const char* what) -> Result<double> {
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (token.empty() || end == token.c_str() || *end != '\0') {
      return Status::InvalidArgument("--net stage '" + stage + "': " + what +
                                     " is not a number: '" + token + "'");
    }
    return v;
  };

  for (const std::string& stage : SplitOn(spec, '+')) {
    if (stage.empty()) {
      return Status::InvalidArgument("--net spec has an empty stage: '" +
                                     spec + "'");
    }
    const std::vector<std::string> parts = SplitOn(stage, ':');
    const std::string& head = parts[0];
    const std::size_t nparams = parts.size() - 1;

    const auto base_stage = [&](NetConfig::Kind kind) -> Status {
      if (have_base) {
        return Status::InvalidArgument(
            "--net allows at most one base delivery model, got a second: '" +
            stage + "'");
      }
      have_base = true;
      config.kind = kind;
      return Status::OK();
    };
    const auto fault_stage = [&]() -> Status {
      if (std::find(fault_stages.begin(), fault_stages.end(), head) !=
          fault_stages.end()) {
        return Status::InvalidArgument("duplicate --net stage: " + head);
      }
      fault_stages.push_back(head);
      return Status::OK();
    };

    if (head == "instant") {
      ASF_RETURN_IF_ERROR(base_stage(NetConfig::Kind::kInstant));
      if (nparams != 0) {
        return Status::InvalidArgument("--net=instant takes no parameters");
      }
    } else if (head == "latency") {
      ASF_RETURN_IF_ERROR(base_stage(NetConfig::Kind::kFixedLatency));
      if (nparams < 1 || nparams > 2) {
        return Status::InvalidArgument(
            "--net=latency expects latency:<delay>[:<jitter>]");
      }
      ASF_ASSIGN_OR_RETURN(config.latency, number(stage, parts[1], "delay"));
      if (nparams == 2) {
        ASF_ASSIGN_OR_RETURN(config.jitter, number(stage, parts[2], "jitter"));
      }
    } else if (head == "batch") {
      ASF_RETURN_IF_ERROR(base_stage(NetConfig::Kind::kBatched));
      if (nparams != 1) {
        return Status::InvalidArgument("--net=batch expects batch:<delta>");
      }
      ASF_ASSIGN_OR_RETURN(config.delta, number(stage, parts[1], "delta"));
    } else if (head == "bw") {
      ASF_RETURN_IF_ERROR(base_stage(NetConfig::Kind::kBoundedBandwidth));
      if (nparams != 1) {
        return Status::InvalidArgument("--net=bw expects bw:<rate>");
      }
      ASF_ASSIGN_OR_RETURN(config.rate, number(stage, parts[1], "rate"));
    } else if (head == "loss") {
      ASF_RETURN_IF_ERROR(fault_stage());
      if (nparams < 1 || nparams > 2) {
        return Status::InvalidArgument(
            "--net loss expects loss:<probability>[:<burst>]");
      }
      ASF_ASSIGN_OR_RETURN(config.loss, number(stage, parts[1], "probability"));
      if (nparams == 2) {
        ASF_ASSIGN_OR_RETURN(config.loss_burst,
                             number(stage, parts[2], "burst length"));
      }
    } else if (head == "reorder") {
      ASF_RETURN_IF_ERROR(fault_stage());
      if (nparams != 1) {
        return Status::InvalidArgument(
            "--net reorder expects reorder:<max-displacement>");
      }
      ASF_ASSIGN_OR_RETURN(const double k,
                           number(stage, parts[1], "max displacement"));
      if (k < 0 || k != std::floor(k) || k > 1e6) {
        return Status::InvalidArgument(
            "--net reorder: max displacement must be an integer in "
            "[0, 1000000], got '" +
            parts[1] + "'");
      }
      config.reorder = static_cast<std::uint32_t>(k);
    } else if (head == "partition") {
      ASF_RETURN_IF_ERROR(fault_stage());
      if (nparams != 1 || parts[1].empty()) {
        return Status::InvalidArgument(
            "--net partition expects partition:<t0>,<t1>[,...]");
      }
      for (const std::string& tok : SplitOn(parts[1], ',')) {
        ASF_ASSIGN_OR_RETURN(const double t, number(stage, tok, "boundary"));
        config.partition.push_back(t);
      }
    } else if (head == "rto") {
      ASF_RETURN_IF_ERROR(fault_stage());
      if (nparams < 1 || nparams > 2) {
        return Status::InvalidArgument(
            "--net rto expects rto:<timeout>[:<max>], rto:adaptive[:<max>] "
            "or rto:fixed[:<max>]");
      }
      if (parts[1] == "adaptive" || parts[1] == "fixed") {
        config.rto_adaptive = parts[1] == "adaptive";
      } else {
        ASF_ASSIGN_OR_RETURN(config.rto, number(stage, parts[1], "timeout"));
        if (!(config.rto > 0)) {
          return Status::InvalidArgument("--net rto: timeout must be > 0");
        }
      }
      if (nparams == 2) {
        ASF_ASSIGN_OR_RETURN(config.rto_max, number(stage, parts[2], "cap"));
      }
    } else if (head == "comp") {
      ASF_RETURN_IF_ERROR(fault_stage());
      if (nparams != 1) {
        return Status::InvalidArgument("--net comp expects comp:<margin>");
      }
      ASF_ASSIGN_OR_RETURN(config.comp, number(stage, parts[1], "margin"));
    } else if (head == "norecon") {
      ASF_RETURN_IF_ERROR(fault_stage());
      if (nparams != 0) {
        return Status::InvalidArgument("--net norecon takes no parameters");
      }
      config.reconcile = false;
    } else {
      return Status::InvalidArgument(
          "unknown --net stage: '" + head +
          "' (expected instant|latency|batch|bw|loss|reorder|partition|rto|"
          "comp|norecon)");
    }
  }
  ASF_RETURN_IF_ERROR(config.Validate());
  return config;
}

void NetworkModel::Bind(Scheduler* scheduler, UpdateSink on_update,
                        DeploySink on_deploy) {
  ASF_CHECK_MSG(scheduler_ == nullptr, "NetworkModel bound twice");
  ASF_CHECK(scheduler != nullptr);
  ASF_CHECK(on_update != nullptr);
  ASF_CHECK(on_deploy != nullptr);
  scheduler_ = scheduler;
  update_sink_ = std::move(on_update);
  deploy_sink_ = std::move(on_deploy);
}

NetworkModel::~NetworkModel() = default;

void NetworkModel::StartRun(SimTime horizon) {
  if (faults_ != nullptr) faults_->StartRun(horizon);
}

void NetworkModel::SendDeploy(std::size_t slot, StreamId id,
                              const FilterConstraint& constraint,
                              SimTime now) {
  if (faults_ != nullptr) {
    faults_->SendDeploy(slot, id, constraint, now);
  } else {
    DeliverDeploy(slot, id, constraint, now);
  }
}

bool NetworkModel::ControlRpc(StreamId id, SimTime now) {
  ++stats_.control_rpcs;
  return faults_ == nullptr || faults_->ControlRpc(id, now);
}

void NetworkModel::Finalize(SimTime horizon) {
  (void)horizon;
  stats_.in_flight_at_end = pending_wire_;
  stats_.in_flight_crossings_at_end = pending_crossings_;
  if (faults_ != nullptr) faults_->Finalize();
}

void NetworkModel::DeliverDeploy(std::size_t slot, StreamId id,
                                 const FilterConstraint& constraint,
                                 SimTime now) {
  ++stats_.deploy_messages;
  deploy_sink_(slot, id, constraint, now);
}

void NetworkModel::EmitUpdate(StreamId id, std::vector<Payload>& payloads,
                              SimTime at, bool sample_delay) {
  if (faults_ != nullptr && !faults_->Egress(id, payloads, at)) return;
  AccountAndDeliver(id, payloads, at, sample_delay);
}

void NetworkModel::ScheduleWireMessage(StreamId id,
                                       std::vector<Payload> payloads,
                                       SimTime at, SimTime delay) {
  for (const Payload& p : payloads) AddInFlight(p.slot);
  ++pending_wire_;
  pending_crossings_ += payloads.size();
  ScheduleDelivery(
      at, delay, [this, id, at, payloads = std::move(payloads)]() mutable {
        --pending_wire_;
        OnWireDelivered(id);
        for (const Payload& p : payloads) {
          SubInFlight(p.slot);
          pending_crossings_ -= p.crossings;
        }
        EmitUpdate(id, payloads, at, /*sample_delay=*/true);
      });
}

FilterConstraint CompensateConstraint(const FilterConstraint& constraint,
                                      double margin) {
  if (margin <= 0 || !constraint.has_filter() || constraint.IsSilent()) {
    return constraint;
  }
  const Interval& iv = constraint.interval();
  const Value lo = iv.lo();
  const Value hi = iv.hi();
  const Value lo2 = std::isinf(lo) ? lo : lo + margin;
  const Value hi2 = std::isinf(hi) ? hi : hi - margin;
  if (lo2 > hi2) {
    // Guard bands crossed: the compensated filter collapses to the
    // original midpoint, so any movement reports (maximally cautious).
    const Value mid = (lo + hi) / 2;
    return FilterConstraint::Range(Interval(mid, mid));
  }
  return FilterConstraint::Range(Interval(lo2, hi2));
}

namespace {

/// The paper's semantics: every message arrives inside the event that
/// produced it.
class InstantNet final : public NetworkModel {
 public:
  /// Delivers one wire message inside the producing event: no scheduler,
  /// no heap traffic in steady state (the payload scratch is reused), no
  /// delay samples (staleness is identically zero).
  void SendUpdate(StreamId id, Value v, const std::vector<std::size_t>& slots,
                  SimTime now) override {
    stats_.crossings += slots.size();
    scratch_.clear();
    for (const std::size_t slot : slots) {
      scratch_.push_back(Payload{slot, v, now, 1, 0});
    }
    EmitUpdate(id, scratch_, now, /*sample_delay=*/false);
  }

 private:
  std::vector<Payload> scratch_;
};

/// Constant per-link one-way delay plus uniform jitter, both directions.
/// Delivery order is FIFO per (link, direction): a jittered later message
/// never overtakes an earlier one (its delivery clamps to the link's last
/// scheduled arrival).
class FixedLatencyNet final : public NetworkModel {
 public:
  FixedLatencyNet(double latency, double jitter, std::uint64_t seed)
      : latency_(latency), jitter_(jitter), rng_(seed) {}

  void SendUpdate(StreamId id, Value v, const std::vector<std::size_t>& slots,
                  SimTime now) override {
    stats_.crossings += slots.size();
    std::vector<Payload> payloads;
    payloads.reserve(slots.size());
    for (const std::size_t slot : slots) {
      payloads.push_back(Payload{slot, v, now, 1, 0});
    }
    ScheduleWireMessage(id, std::move(payloads),
                        NextDelivery(&uplink_last_, id, now), latency_);
  }

  void DeliverDeploy(std::size_t slot, StreamId id,
                     const FilterConstraint& constraint,
                     SimTime now) override {
    const SimTime at = NextDelivery(&downlink_last_, id, now);
    ++pending_wire_;
    // The arrival time is the event's own time, read back from now(), and
    // the slot travels narrowed so the capture stays inline.
    ASF_CHECK(slot <= std::numeric_limits<std::uint32_t>::max());
    const auto slot32 = static_cast<std::uint32_t>(slot);
    auto deliver = [this, slot32, id, constraint] {
      --pending_wire_;
      ++stats_.deploy_messages;
      deploy_sink_(slot32, id, constraint, scheduler_->now());
    };
    static_assert(sizeof(deliver) <= EventCallback::kInlineSize,
                  "a deploy delivery must not allocate");
    ScheduleDelivery(at, latency_, std::move(deliver));
  }

 private:
  SimTime NextDelivery(std::vector<SimTime>* last, StreamId id, SimTime now) {
    SimTime at = now + latency_;
    if (jitter_ > 0) at += rng_.Uniform(0, jitter_);
    if (id >= last->size()) last->resize(id + 1, 0);
    if (at < (*last)[id]) at = (*last)[id];  // FIFO per link & direction
    (*last)[id] = at;
    return at;
  }

  const double latency_;
  const double jitter_;
  Rng rng_;
  std::vector<SimTime> uplink_last_;
  std::vector<SimTime> downlink_last_;
};

/// Δ-batched delivery: each source coalesces its filter crossings and
/// flushes one wire message at the next point of the global Δ grid. A
/// coalesced payload carries the query's *latest* crossing value; the
/// crossings counter records how many it stands for (NetStats::
/// MessagesPerFlush is the batching win). Server→source deploys are
/// control plane and deliver instantly.
class BatchedNet final : public NetworkModel {
 public:
  explicit BatchedNet(double delta) : delta_(delta) {}

  void SendUpdate(StreamId id, Value v, const std::vector<std::size_t>& slots,
                  SimTime now) override {
    stats_.crossings += slots.size();
    if (id >= links_.size()) links_.resize(id + 1);
    Link& link = links_[id];
    pending_crossings_ += slots.size();
    for (const std::size_t slot : slots) {
      // Pending lists stay sorted by slot and are tiny (the queries this
      // one source crossed since the last flush), so a linear merge is
      // cheaper than any indexed structure.
      auto it = std::lower_bound(
          link.pending.begin(), link.pending.end(), slot,
          [](const Payload& p, std::size_t s) { return p.slot < s; });
      if (it != link.pending.end() && it->slot == slot) {
        it->value = v;
        it->crossed_at = now;
        ++it->crossings;
      } else {
        link.pending.insert(it, Payload{slot, v, now, 1, 0});
        AddInFlight(slot);
      }
    }
    if (!link.scheduled) {
      link.scheduled = true;
      ++pending_wire_;
      SimTime at = (std::floor(now / delta_) + 1) * delta_;
      if (at <= now) at = now + delta_;  // guard fp rounding at grid points
      scheduler_->ScheduleAt(at, [this, id, at] { Flush(id, at); });
    }
  }

 private:
  struct Link {
    std::vector<Payload> pending;  ///< sorted by slot
    bool scheduled = false;
  };

  void Flush(StreamId id, SimTime at) {
    Link& link = links_[id];
    --pending_wire_;
    link.scheduled = false;
    flush_scratch_.clear();
    flush_scratch_.swap(link.pending);
    for (const Payload& p : flush_scratch_) {
      SubInFlight(p.slot);
      pending_crossings_ -= p.crossings;
    }
    EmitUpdate(id, flush_scratch_, at, /*sample_delay=*/true);
  }

  const double delta_;
  std::vector<Link> links_;
  std::vector<Payload> flush_scratch_;
};

/// Per-source uplink FIFO with a fixed service rate: each wire message
/// occupies the link for 1/rate, so bursts queue behind each other and
/// delivery delay grows with backlog. The downlink (server→source) is
/// uncongested and delivers instantly — the model targets the congested
/// sensor-uplink scenario.
class BoundedBandwidthNet final : public NetworkModel {
 public:
  explicit BoundedBandwidthNet(double rate) : service_time_(1.0 / rate) {}

  void SendUpdate(StreamId id, Value v, const std::vector<std::size_t>& slots,
                  SimTime now) override {
    stats_.crossings += slots.size();
    if (id >= next_free_.size()) {
      next_free_.resize(id + 1, 0);
      queued_.resize(id + 1, 0);
    }
    stats_.queue_depth.Add(static_cast<double>(queued_[id]));
    ++queued_[id];
    std::vector<Payload> payloads;
    payloads.reserve(slots.size());
    for (const std::size_t slot : slots) {
      payloads.push_back(Payload{slot, v, now, 1, 0});
    }
    const SimTime at = std::max(now, next_free_[id]) + service_time_;
    next_free_[id] = at;
    ScheduleWireMessage(id, std::move(payloads), at, service_time_);
  }

 private:
  void OnWireDelivered(StreamId id) override { --queued_[id]; }

  const double service_time_;
  std::vector<SimTime> next_free_;
  std::vector<std::uint32_t> queued_;
};

}  // namespace

std::unique_ptr<NetworkModel> MakeNetworkModel(const NetConfig& config,
                                               std::uint64_t seed) {
  // A base model whose parameters do not delay is InstantNet, whatever
  // its kind: one instant-delivery path keeps those runs byte-identical.
  std::unique_ptr<NetworkModel> net;
  switch (config.BaseDelays() ? config.kind : NetConfig::Kind::kInstant) {
    case NetConfig::Kind::kInstant:
      net = std::make_unique<InstantNet>();
      break;
    case NetConfig::Kind::kFixedLatency:
      // Decorrelated substream: the model's jitter draws never perturb
      // protocol RNG consumption (slots derive their own seeds).
      net = std::make_unique<FixedLatencyNet>(config.latency, config.jitter,
                                              MixSeed(seed, 0x6e657421ULL));
      break;
    case NetConfig::Kind::kBatched:
      net = std::make_unique<BatchedNet>(config.delta);
      break;
    case NetConfig::Kind::kBoundedBandwidth:
      net = std::make_unique<BoundedBandwidthNet>(config.rate);
      break;
  }
  if (net == nullptr) net = std::make_unique<InstantNet>();
  // Zero-rate fault configs have no stage (HasFaults is false), so the
  // bare model keeps its byte-identity guarantees; an active fault stage
  // draws from its own decorrelated substream.
  if (config.HasFaults()) {
    net->faults_ = std::make_unique<FaultPipeline>(
        config, *net, MixSeed(seed, 0x6661756cULL));
  }
  return net;
}

}  // namespace asf
