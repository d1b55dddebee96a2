#include "engine/sim_core.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "engine/query_slot.h"
#include "engine/spill.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "stream/random_walk.h"
#include "stream/trace_source.h"

namespace asf {

namespace {
// A transport closure must never touch a view that survived an arena
// rebind; the generation tags make that checkable.
inline void AssertViewFresh(const FilterBank& bank, const FilterArena& arena) {
  (void)bank;
  (void)arena;
  ASF_DCHECK(bank.bound_generation() == arena.generation());
}
}  // namespace

SimulationCore::SimulationCore(const Options& options)
    : options_(options), arena_(options.source.NumStreams()),
      wall_start_(std::chrono::steady_clock::now()) {
  if (options_.source.type == SourceSpec::Type::kCustom) {
    streams_ = options_.source.custom;  // borrowed (see SourceSpec::Custom)
  } else {
    owned_streams_ = MakeStreams(options_.source);
    streams_ = owned_streams_.get();
  }
  ASF_CHECK(streams_ != nullptr);
  ASF_CHECK(streams_->size() == arena_.num_streams());

  if (options_.spill.enabled()) {
    spiller_ = engine_internal::QueryStateSpiller::Create(options_.spill);
  }

  arena_.SetDispatchPolicy(ResolveDispatchPolicy(options_.dispatch));
  // Compaction relocations retag the moved column's owner in one place;
  // RetireSlot only has to shrink the owner map afterwards.
  arena_.set_relocation_callback([this](std::size_t from, std::size_t to) {
    const std::size_t owner = column_owner_[from];
    column_owner_[to] = owner;
    slots_[owner]->column = to;
  });

  // Every source→server update and server→source deploy travels through
  // the delivery model (DESIGN.md §9): inline for instant-equivalent
  // configs, as scheduler events otherwise.
  net_ = MakeNetworkModel(options_.net, options_.seed);
  net_delayed_ = options_.net.DelaysDelivery();
  net_->Bind(
      &scheduler_,
      [this](StreamId id, const NetworkModel::Payload* payloads,
             std::size_t count, SimTime at) {
        OnNetUpdate(id, payloads, count, at);
      },
      [this](std::size_t slot, StreamId id, const FilterConstraint& constraint,
             SimTime at) { OnNetDeploy(slot, id, constraint, at); });
  net_->BindReconcile([this](SimTime at) { OnNetReconcile(at); });

  // Observability attachment (DESIGN.md §14). All hooks are inert — they
  // record quantities the run already computed and never schedule, draw
  // randomness, or block.
  if (options_.obs.tracer != nullptr || options_.obs.metrics != nullptr) {
    net_->set_obs(options_.obs.metrics != nullptr
                      ? options_.obs.metrics->net_sink()
                      : nullptr,
                  options_.obs.tracer);
  }
  if (spiller_) {
    spiller_->set_obs(options_.obs.tracer, options_.obs.profiler, &scheduler_);
  }
  arena_.set_profiler(options_.obs.profiler);
}

SimulationCore::~SimulationCore() = default;

std::size_t SimulationCore::AddQuery(const QueryDeployment& deployment) {
  const SimTime start =
      deployment.start < 0 ? options_.query_start : deployment.start;
  return DeployQuery(deployment, start);
}

std::size_t SimulationCore::DeployQuery(const QueryDeployment& deployment,
                                        SimTime at) {
  ASF_CHECK_MSG(!ran_, "DeployQuery after Run()");
  ASF_CHECK_MSG(at >= 0 && at < options_.duration,
                "deploy time outside [0, duration)");
  const std::size_t index = slots_.size();
  // Before its deploy event a slot is just a record — the deployment and
  // its lifecycle window. The runtime (filters, server context, RNG,
  // protocol) is wired by the deploy event itself (WireSlot), so resident
  // runtime state scales with the peak live population, not with
  // cumulative deployments (DESIGN.md §13).
  auto slot = std::make_unique<Slot>();
  slot->deployment = deployment;
  slot->index = index;
  slot->deploy_at = at;
  slot->stats.name = deployment.name;
  slots_.push_back(std::move(slot));
  if (deployment.end != kNeverRetire) RetireQuery(index, deployment.end);
  return index;
}

void SimulationCore::WireSlot(std::size_t index) {
  const std::size_t n = streams_->size();

  // The wires between this query's server context and the shared sources.
  // Probes and deploys sync/reset this query's filter references only;
  // other queries' filters are untouched (per-query isolation). The bank
  // pointer is stable; its *view* is rebound as the arena grows and
  // compacts, which the generation tag asserts. Probes are blocking
  // zero-time RPCs the network model only observes; deploys route through
  // it and take effect at the source on *delivery* (OnNetDeploy).
  const auto make_transport = [this, index](FilterBank* bank) {
    Transport transport;
    transport.probe = [this, bank](StreamId id) -> std::optional<Value> {
      AssertViewFresh(*bank, arena_);
      // A lost exchange (partition / bounded retransmission exhausted)
      // reports no value; the server context serves its cache instead.
      if (!net_->ControlRpc(id, scheduler_.now())) return std::nullopt;
      const Value v = streams_->value(id);
      bank->SyncReference(id, v);  // the probed value is now "reported"
      return v;
    };
    transport.region_probe =
        [this, bank](StreamId id,
                     const Interval& region) -> std::optional<Value> {
      AssertViewFresh(*bank, arena_);
      // A lost region probe is indistinguishable from an out-of-region
      // silence at the server — exactly the conservative reading.
      if (!net_->ControlRpc(id, scheduler_.now())) return std::nullopt;
      const Value v = streams_->value(id);
      if (!region.Contains(v)) return std::nullopt;
      bank->SyncReference(id, v);
      return v;
    };
    transport.deploy = [this, index](StreamId id,
                                     const FilterConstraint& constraint) {
      net_->SendDeploy(index, id, constraint, scheduler_.now());
    };
    return transport;
  };
  Slot& slot = *slots_[index];
  engine_internal::WireQuerySlot(&slot, slot.deployment, slot.deploy_at, n,
                                 options_.seed, index, make_transport);
  // Lets protocols relax their zero-delay belief assertions while
  // messages may be in transit (DESIGN.md §9).
  slot.ctx->set_delayed_delivery(net_delayed_);
}

void SimulationCore::RetireQuery(std::size_t slot, SimTime at) {
  ASF_CHECK_MSG(!ran_, "RetireQuery after Run()");
  ASF_CHECK(slot < slots_.size());
  ASF_CHECK_MSG(at > slots_[slot]->deploy_at,
                "retire time must follow the deploy time");
  slots_[slot]->retire_at = at;
}

void SimulationCore::RunOracle(Slot& slot) {
  // Attribute fresh violations to transit when update payloads for this
  // query are still in flight — the staleness share of the error budget
  // (always zero under instant delivery).
  const std::uint64_t before = slot.stats.oracle_violations;
  engine_internal::JudgeSlot(slot, streams_->values());
  if (slot.stats.oracle_violations != before &&
      net_->InFlight(slot.index) > 0) {
    ++slot.stats.oracle_violations_in_flight;
  }
}

void SimulationCore::RebindLiveViews() {
  for (std::size_t c = 0; c < arena_.live(); ++c) {
    slots_[column_owner_[c]]->filters->Retag(c, arena_.generation());
  }
}

void SimulationCore::InstallSlot(std::size_t index) {
  Slot& slot = *slots_[index];
  ASF_CHECK(!slot.live);
  WireSlot(index);

  // Take a column in the shared arena and bind the new query's view.
  // Growth invalidates every other live view (the storage reallocates),
  // so retag them all.
  const std::uint64_t generation_before = arena_.generation();
  slot.column = arena_.Acquire();
  column_owner_.push_back(index);
  ASF_CHECK(column_owner_.size() == arena_.live());
  slot.live = true;
  *slot.filters = arena_.View(slot.column);
  if (arena_.generation() != generation_before) RebindLiveViews();
  peak_live_ = std::max(peak_live_, arena_.live());

  // The query's sample stream opens now: it sees only updates generated
  // inside its live window.
  slot.answer_sampled_upto = updates_generated_;
  slot.stats.deployed_at = scheduler_.now();
  ASF_TRACE_EVENT(options_.obs.tracer, obs::TraceEventType::kDeploy,
                  scheduler_.now(), static_cast<std::uint32_t>(index), 0,
                  arena_.live());

  slot.stats.messages.set_phase(MessagePhase::kInit);
  slot.protocol->Initialize(scheduler_.now());
  slot.stats.messages.set_phase(MessagePhase::kMaintenance);
  const FilterBank::SilentCounts silent = slot.filters->CountSilentFilters();
  slot.stats.fp_filters_installed = silent.false_positive;
  slot.stats.fn_filters_installed = silent.false_negative;
  slot.answer_cur_size = static_cast<double>(slot.protocol->answer().size());
  if (options_.oracle.check_every_update) RunOracle(slot);
}

void SimulationCore::RetireSlot(std::size_t index) {
  Slot& slot = *slots_[index];
  ASF_CHECK(slot.live);

  // Uninstall this query's filters: the server tells every stream to drop
  // the constraint (a pass-through deploy), the termination counterpart of
  // the initial installation. Charged as maintenance kFilterDeploy under
  // the query's broadcast model, like any other redeploy.
  slot.ctx->DeployAll(FilterConstraint::NoFilter());

  // Close the books inside the live window.
  engine_internal::FlushAnswerSamples(slot, updates_generated_);
  slot.stats.retired_at = scheduler_.now();
  slot.stats.reinits = slot.protocol->reinit_count();
  slot.live = false;

  // Release the arena column; the last live column compacts into the
  // hole, and the arena's relocation callback retags its owner before
  // Release returns. Rebind every live view against the bumped
  // generation.
  arena_.Release(slot.column);
  column_owner_.pop_back();
  slot.column = FilterArena::kNoColumn;
  RebindLiveViews();

  ASF_TRACE_EVENT(options_.obs.tracer, obs::TraceEventType::kRetire,
                  scheduler_.now(), static_cast<std::uint32_t>(index), 0,
                  arena_.live());

  // Books are closed, and every later delivery, deploy, oracle and
  // reconcile path gates on slot.live: free the slot's runtime, so
  // resident runtime tracks the live population (DESIGN.md §13). With
  // spilling the closed record goes to pages too; the arena never spills.
  slot.deployment = QueryDeployment();
  slot.protocol.reset();
  slot.ctx.reset();
  slot.rng.reset();
  slot.filters.reset();
  std::vector<std::uint64_t>().swap(slot.update_seq_floor);
  if (spiller_) engine_internal::SpillRetiredSlot(*spiller_, slot);
}

void SimulationCore::ScheduleLifecycleBatch() {
  const std::size_t end =
      std::min(lifecycle_cursor_ + kLifecycleBatch, lifecycle_.size());
  const bool more = end < lifecycle_.size();
  for (std::size_t k = lifecycle_cursor_; k < end; ++k) {
    const LifecycleEvent ev = lifecycle_[k];
    // The batch's last event refills the feed after running its own
    // action. Refilled events carry reserved seqs strictly greater than
    // this event's (the feed is sorted by (t, seq)), so they dispatch
    // exactly where an eager schedule would have placed them, even at
    // the same timestamp.
    const bool refill = more && k + 1 == end;
    scheduler_.ScheduleAtReserved(ev.t, ev.seq, [this, ev, refill] {
      if (ev.deploy) {
        InstallSlot(ev.slot);
      } else {
        RetireSlot(ev.slot);
      }
      if (refill) ScheduleLifecycleBatch();
    });
  }
  lifecycle_cursor_ = end;
  if (!more) {
    // Feed exhausted; the events hold copies, so the backing array can go.
    lifecycle_.clear();
    lifecycle_.shrink_to_fit();
  }
}

void SimulationCore::OnNetUpdate(StreamId id,
                                 const NetworkModel::Payload* payloads,
                                 std::size_t count, SimTime at) {
  obs::ScopedPhase obs_phase(options_.obs.profiler, obs::Phase::kNetFlush);
  ASF_TRACE_EVENT(options_.obs.tracer, obs::TraceEventType::kWireDeliver, at,
                  id, count != 0 ? payloads[count - 1].value : 0, count);
  const bool delivered = engine_internal::DeliverWireMessage(
      slots_, *net_, net_delayed_, updates_generated_, physical_updates_, id,
      payloads, count, at);
  // Under delayed delivery the per-update audit must also judge at
  // arrival instants — the answer just changed between generated
  // updates. (Inline deliveries are already covered by the audit in the
  // update handler.)
  if (net_delayed_ && delivered && options_.oracle.check_every_update) {
    for (auto& slot : slots_) {
      if (slot->live) RunOracle(*slot);
    }
  }
}

void SimulationCore::OnNetDeploy(std::size_t slot_index, StreamId id,
                                 const FilterConstraint& constraint,
                                 SimTime at) {
  Slot& slot = *slots_[slot_index];
  if (!slot.live) {
    // Retirement already uninstalled the column; drop the stale install.
    ++net_->stats().deploy_dropped_retired;
    ASF_TRACE_EVENT(options_.obs.tracer, obs::TraceEventType::kWireDrop, at,
                    id, 0, slot_index);
    return;
  }
  (void)at;
  AssertViewFresh(*slot.filters, arena_);
  // The agent resets the membership reference against its *current* local
  // value (DESIGN.md §4, first bullet) — under delayed delivery that is
  // the value at arrival, not at send. Staleness compensation shrinks the
  // installed band by the configured guard margin (DESIGN.md §11).
  slot.filters->Deploy(id, CompensateConstraint(constraint, options_.net.comp),
                       streams_->value(id));
}

void SimulationCore::OnNetReconcile(SimTime at) {
  engine_internal::ReconcileSlots(slots_, streams_->values(), *net_,
                                  updates_generated_, at);
  if (options_.oracle.check_every_update) {
    for (auto& slot : slots_) {
      if (slot->live) RunOracle(*slot);
    }
  }
}

void SimulationCore::OracleSampleTick() {
  for (auto& slot : slots_) {
    if (slot->live) RunOracle(*slot);
  }
  if (scheduler_.now() + options_.oracle.sample_interval <=
      options_.duration) {
    scheduler_.ScheduleAfter(options_.oracle.sample_interval,
                             [this] { OracleSampleTick(); });
  }
}

void SimulationCore::Run() {
  ASF_CHECK_MSG(!ran_, "Run() called twice");
  ASF_CHECK_MSG(!slots_.empty(), "Run() without any deployed query");
  ran_ = true;

  // Root profiler scope: everything Run does that no finer phase claims
  // accrues to kOther, so the phase table always sums to (about) the
  // run's wall time.
  obs::ScopedPhase obs_root(options_.obs.profiler, obs::Phase::kOther);

  // Gauges read state the run maintains anyway; they are sampled only at
  // snapshot grid points and cleared before Run returns (the lambdas
  // capture `this`).
  obs::MetricsRegistry* const obs_reg = options_.obs.metrics;
  if (obs_reg != nullptr) {
    obs_reg->RegisterGauge("updates_generated", [this] {
      return static_cast<double>(updates_generated_);
    });
    obs_reg->RegisterGauge("live_queries", [this] {
      return static_cast<double>(arena_.live());
    });
    obs_reg->RegisterGauge("net_crossings", [this] {
      return static_cast<double>(net_->stats().crossings);
    });
    obs_reg->RegisterGauge("net_wire_updates", [this] {
      return static_cast<double>(net_->stats().update_messages);
    });
    obs_reg->RegisterGauge("net_staleness_mean",
                           [this] { return net_->stats().delay.mean(); });
    obs_reg->RegisterGauge("spill_resident_bytes", [this] {
      return spiller_
                 ? static_cast<double>(spiller_->Telemetry().pool_resident_bytes)
                 : 0.0;
    });
  }

  streams_->set_update_handler([this](StreamId id, Value v, SimTime t) {
    const std::size_t live = arena_.live();
    if (live == 0) return;  // warm-up / lull: no query, no messages
    ++updates_generated_;
    ASF_TRACE_EVENT(options_.obs.tracer, obs::TraceEventType::kValueUpdate, t,
                    id, v, 0);
    // All live queries' filters for this stream sit in one contiguous,
    // compacted SoA strip; the configured dispatch policy evaluates every
    // live column — one SIMD sweep, or the stabbing index's
    // output-sensitive crossing query (DESIGN.md §10) — and advances the
    // membership references (retired queries cost nothing here).
    // Per-query isolation makes the batch evaluation exact: a fired
    // column's protocol reaction can only touch its own filters, never
    // another column's crossing decision for this update.
#if ASF_OBS_TRACE_COMPILED
    const bool obs_want_index =
        options_.obs.tracer != nullptr &&
        options_.obs.tracer->Wants(obs::kCatIndex);
    const std::uint64_t obs_rebuilds_before =
        obs_want_index ? arena_.dispatch_stats().index_rebuilds : 0;
#endif
    {
      obs::ScopedPhase obs_phase(options_.obs.profiler, obs::Phase::kDispatch);
      arena_.DispatchUpdate(id, v, &fired_columns_);
    }
#if ASF_OBS_TRACE_COMPILED
    if (obs_want_index) {
      const std::uint64_t rebuilds = arena_.dispatch_stats().index_rebuilds;
      if (rebuilds != obs_rebuilds_before) {
        options_.obs.tracer->Emit(obs::TraceEventType::kIndexRebuild, t, id, v,
                                  rebuilds);
      }
    }
    if (options_.obs.tracer != nullptr &&
        options_.obs.tracer->Wants(obs::kCatCrossing)) {
      for (const std::uint32_t c : fired_columns_) {
        options_.obs.tracer->Emit(obs::TraceEventType::kCrossing, t, c, v,
                                  fired_columns_.size());
      }
    }
#endif
    // Fired columns map to slot indices *now* (columns move under
    // compaction, slots never do) and the crossings travel through the
    // network model, which delivers them back via OnNetUpdate — inside
    // this event for instant delivery, later otherwise (DESIGN.md §9).
    fired_slots_.clear();
    for (const std::uint32_t c : fired_columns_) {
      fired_slots_.push_back(column_owner_[c]);
    }
    if (!fired_slots_.empty()) {
      ASF_TRACE_EVENT(options_.obs.tracer, obs::TraceEventType::kWireSend, t,
                      id, v, fired_slots_.size());
      net_->SendUpdate(id, v, fired_slots_, t);
    }
    if (options_.oracle.check_every_update) {
      for (auto& slot : slots_) {
        if (slot->live) RunOracle(*slot);
      }
    }
  });

  // The lifecycle feed. Dispatch order at equal timestamps must be
  // exactly the classic all-upfront scheme's: every deploy (slot order)
  // before every retirement (slot order), both before any same-instant
  // stream/oracle/net event. Reserving the whole seq block here pins that
  // order — (time, seq) decides dispatch no matter when an event is
  // inserted — so the feeder can materialize scheduler entries in small
  // batches and the queue holds O(batch) lifecycle events instead of one
  // per cumulative deployment (long churn schedules would otherwise spend
  // more memory on pending events than on the live queries themselves).
  lifecycle_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    lifecycle_.push_back(
        {slots_[i]->deploy_at, 0, static_cast<std::uint32_t>(i), true});
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const SimTime retire_at = slots_[i]->retire_at;
    // A retirement at or beyond the horizon is the same observable run as
    // never retiring — the query serves its whole window either way — so
    // skip it rather than charge a pointless uninstall broadcast at the
    // instant the run ends (no cost cliff between end == duration and
    // end == duration + epsilon).
    if (retire_at < options_.duration) {
      lifecycle_.push_back(
          {retire_at, 0, static_cast<std::uint32_t>(i), false});
    }
  }
  const std::uint64_t seq_base = scheduler_.ReserveSeqs(lifecycle_.size());
  for (std::size_t k = 0; k < lifecycle_.size(); ++k) {
    lifecycle_[k].seq = seq_base + k;
  }
  std::sort(lifecycle_.begin(), lifecycle_.end(),
            [](const LifecycleEvent& a, const LifecycleEvent& b) {
              return a.t < b.t || (a.t == b.t && a.seq < b.seq);
            });
  lifecycle_cursor_ = 0;
  ScheduleLifecycleBatch();

  // Periodic oracle sampling, if requested. OracleSampleTick reschedules
  // itself (a plain member function — no self-referential std::function).
  if (options_.oracle.sample_interval > 0) {
    scheduler_.ScheduleAt(
        std::min(options_.query_start + options_.oracle.sample_interval,
                 options_.duration),
        [this] { OracleSampleTick(); });
  }

  // Model-owned timers (partition reconnect exchanges) are scheduled
  // last, after lifecycle and oracle events: that fixes their FIFO
  // seniority at equal timestamps.
  net_->StartRun(options_.duration);

  streams_->Start(&scheduler_, options_.duration);
  if (obs_reg != nullptr && options_.obs.metrics_every > 0) {
    // Same event sequence as the plain RunUntil below — a Step loop with
    // (time, seq) FIFO dispatch executes events in identical order — but
    // gauge snapshots interleave on the sim-time grid: a grid point at T
    // samples before any event at exactly T runs.
    const SimTime every = options_.obs.metrics_every;
    SimTime next_snap = every;
    for (;;) {
      const SimTime next_event = scheduler_.NextEventTime();
      const SimTime limit = std::min(next_event, options_.duration);
      while (next_snap <= options_.duration && next_snap <= limit) {
        obs_reg->SnapshotAt(next_snap);
        next_snap += every;
      }
      if (next_event > options_.duration) break;
      scheduler_.Step();
    }
    scheduler_.RunUntil(options_.duration);  // clock -> horizon
    while (next_snap <= options_.duration) {
      obs_reg->SnapshotAt(next_snap);
      next_snap += every;
    }
  } else {
    scheduler_.RunUntil(options_.duration);
  }
  net_->Finalize(options_.duration);
  // Every crossing offered to the network ends delivered, dropped or
  // still in flight at the horizon (NetStats).
  const NetStats& net = net_->stats();
  ASF_CHECK_MSG(net.crossings == net.delivered_crossings + net.dropped_loss +
                                     net.dropped_partition +
                                     net.dropped_retired +
                                     net.in_flight_crossings_at_end,
                "crossing conservation broken");

  for (auto& slot : slots_) {
    if (!slot->live) continue;  // retired slots closed their books already
    // Close every live slot's trailing run of unchanged answer-size
    // samples so each has exactly one sample per update generated in its
    // live window, like the old every-update loop produced.
    engine_internal::FlushAnswerSamples(*slot, updates_generated_);
    slot->stats.reinits = slot->protocol->reinit_count();
    slot->stats.retired_at = options_.duration;
  }
  if (obs_reg != nullptr) obs_reg->ClearGauges();
  wall_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
}

const QueryRunStats& SimulationCore::query_stats(std::size_t i) const {
  ASF_CHECK(i < slots_.size());
  // Fault a spilled record back on demand. The method stays const in
  // spirit — the observable stats are identical, only their storage
  // moves from pages to RAM (unique_ptr makes the write representable).
  engine_internal::EnsureStatsResident(spiller_.get(), *slots_[i]);
  return slots_[i]->stats;
}

SpillTelemetry SimulationCore::spill_telemetry() const {
  return spiller_ ? spiller_->Telemetry() : SpillTelemetry();
}

}  // namespace asf
