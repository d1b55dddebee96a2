#include "engine/sim_core.h"

#include <algorithm>
#include <utility>

#include "engine/protocol_factory.h"
#include "engine/query_slot.h"
#include "engine/spill.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "stream/random_walk.h"
#include "stream/trace_source.h"

namespace asf {

namespace {

/// Seed of query slot `index`'s protocol RNG, derived from the run seed
/// (golden-ratio decorrelation).
std::uint64_t QuerySlotSeed(std::uint64_t run_seed, std::size_t index) {
  return run_seed ^ (0x9e3779b97f4a7c15ULL + index);
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
  net_->BindReconcile([this] { OnNetReconcile(); });

  // Observability attachment (DESIGN.md §14). All hooks are inert — they
  // record quantities the run already computed and never schedule, draw
  // randomness, or block.
  net_->set_tracer(options_.obs.tracer);
  if (spiller_) {
    spiller_->set_obs(options_.obs.tracer, options_.obs.profiler, &scheduler_);
  }
  arena_.set_profiler(options_.obs.profiler);
}

SimulationCore::~SimulationCore() = default;

std::size_t SimulationCore::AddQuery(const QueryDeployment& deployment) {
  ASF_CHECK_MSG(!ran_, "AddQuery after Run()");
  const SimTime start =
      deployment.start < 0 ? options_.query_start : deployment.start;
  ASF_CHECK_MSG(start >= 0 && start < options_.duration,
                "deploy time outside [0, duration)");
  ASF_CHECK_MSG(deployment.end > start,
                "retire time must follow the deploy time");
  const std::size_t index = slots_.size();
  // Before its deploy a slot is just a record — the deployment and its
  // lifecycle window. The runtime (filters, server context, RNG,
  // protocol) is wired by the deploy itself (WireSlot), so resident
  // runtime state scales with the peak live population, not with
  // cumulative deployments (DESIGN.md §13).
  auto slot = std::make_unique<Slot>();
  slot->deployment = deployment;
  slot->index = index;
  slot->deploy_at = start;
  slot->retire_at = deployment.end;
  slot->stats.name = deployment.name;
  slots_.push_back(std::move(slot));
  return index;
}

void SimulationCore::WireSlot(std::size_t index) {
  // The wires between this query's server context and the shared sources.
  // Probes and deploys sync/reset this query's filter references only —
  // its arena column, read from the slot at each use because compaction
  // moves it; other queries' filters are untouched (per-query isolation).
  // Probes are blocking zero-time RPCs the network model only observes;
  // deploys route through it and take effect at the source on *delivery*
  // (OnNetDeploy).
  Slot& slot = *slots_[index];
  Transport transport;
  transport.probe = [this, &slot](StreamId id) -> std::optional<Value> {
    // A lost exchange (partition / bounded retransmission exhausted)
    // reports no value; the server context serves its cache instead.
    if (!net_->ControlRpc(id, scheduler_.now())) return std::nullopt;
    const Value v = streams_->value(id);
    // The probed value is now "reported".
    arena_.SyncReference(id, slot.column, v);
    return v;
  };
  transport.region_probe =
      [this, &slot](StreamId id,
                    const Interval& region) -> std::optional<Value> {
    // A lost region probe is indistinguishable from an out-of-region
    // silence at the server — exactly the conservative reading.
    if (!net_->ControlRpc(id, scheduler_.now())) return std::nullopt;
    const Value v = streams_->value(id);
    if (!region.Contains(v)) return std::nullopt;
    arena_.SyncReference(id, slot.column, v);
    return v;
  };
  transport.deploy = [this, index](StreamId id,
                                   const FilterConstraint& constraint) {
    net_->SendDeploy(index, id, constraint, scheduler_.now());
  };
  // The wiring is self-referential — the context counts into
  // slot.stats.messages — so it is built in place, at the slot's final
  // address.
  const QueryDeployment& deployment = slot.deployment;
  slot.ctx = std::make_unique<ServerContext>(
      streams_->size(), std::move(transport), &slot.stats.messages,
      deployment.broadcast);
  slot.rng = std::make_unique<Rng>(QuerySlotSeed(options_.seed, index));
  slot.protocol =
      MakeProtocol(deployment.query, deployment.protocol, deployment.rank_r,
                   deployment.fraction, deployment.ft, slot.ctx.get(),
                   slot.rng.get());
  // Lets protocols relax their zero-delay belief assertions while
  // messages may be in transit (DESIGN.md §9).
  slot.ctx->set_delayed_delivery(net_delayed_);
}

void SimulationCore::RunOracle(Slot& slot) {
  const QueryDeployment& dep = slot.deployment;
  const OracleCheck check =
      JudgeAnswer(dep.query, dep.protocol, dep.rank_r, dep.fraction,
                  streams_->values(), slot.protocol->answer());
  QueryRunStats& out = slot.stats;
  ++out.oracle_checks;
  if (!check.ok) {
    ++out.oracle_violations;
    // Attribute the violation to transit when update payloads for this
    // query are still in flight — the staleness share of the error budget
    // (always zero under instant delivery).
    if (net_->InFlight(slot.index) > 0) ++out.oracle_violations_in_flight;
  }
  out.max_f_plus = std::max(out.max_f_plus, check.f_plus);
  out.max_f_minus = std::max(out.max_f_minus, check.f_minus);
  out.max_worst_rank = std::max(out.max_worst_rank, check.worst_rank);
}

void SimulationCore::JudgeLiveSlots() {
  for (auto& slot : slots_) {
    if (slot->live) RunOracle(*slot);
  }
}

void SimulationCore::InstallSlot(std::size_t index) {
  Slot& slot = *slots_[index];
  ASF_CHECK(!slot.live);
  WireSlot(index);

  // Take the next column of the shared arena for the query's filters.
  slot.column = arena_.Acquire();
  column_owner_.push_back(index);
  ASF_CHECK(column_owner_.size() == arena_.live());
  slot.live = true;
  peak_live_ = std::max(peak_live_, arena_.live());

  // The query's sample stream opens now: it sees only updates generated
  // inside its live window.
  slot.answer_sampled_upto = updates_generated_;
  slot.stats.deployed_at = scheduler_.now();
  ASF_TRACE_EVENT(options_.obs.tracer, obs::TraceEventType::kDeploy,
                  scheduler_.now(), static_cast<std::uint32_t>(index), 0,
                  arena_.live());

  slot.stats.messages.set_phase(MessagePhase::kInit);
  slot.protocol->Initialize();
  slot.stats.messages.set_phase(MessagePhase::kMaintenance);
  for (StreamId id = 0; id < arena_.num_streams(); ++id) {
    const FilterConstraint c = arena_.cell(id, slot.column).constraint();
    slot.stats.fp_filters_installed += c.IsFalsePositiveFilter();
    slot.stats.fn_filters_installed += c.IsFalseNegativeFilter();
  }
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

  CloseBooks(slot);
  slot.live = false;

  // Release the arena column. The last live column compacts into the
  // hole; re-point its owner there.
  const std::size_t moved = arena_.Release(slot.column);
  if (moved != slot.column) {
    const std::size_t owner = column_owner_[moved];
    column_owner_[slot.column] = owner;
    slots_[owner]->column = slot.column;
  }
  column_owner_.pop_back();
  slot.column = FilterArena::kNoColumn;

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
  std::vector<std::uint64_t>().swap(slot.update_seq_floor);
  if (spiller_) engine_internal::SpillRetiredSlot(*spiller_, slot);
}

void SimulationCore::CloseBooks(Slot& slot) {
  FlushAnswerSamples(slot, updates_generated_);
  slot.stats.retired_at = scheduler_.now();
  slot.stats.reinits = slot.protocol->reinit_count();
}

void SimulationCore::FlushAnswerSamples(Slot& slot, std::uint64_t upto) {
  if (upto > slot.answer_sampled_upto) {
    slot.stats.answer_size.AddRepeated(slot.answer_cur_size,
                                       upto - slot.answer_sampled_upto);
    slot.answer_sampled_upto = upto;
  }
}

void SimulationCore::DeliverUpdate(Slot& slot, StreamId id, Value v) {
  slot.stats.messages.Count(MessageType::kValueUpdate);
  ++slot.stats.updates_reported;
  // The answer can only change while this slot handles the payload: close
  // the run of unchanged samples first (at the pre-delivery size), then
  // sample the new size once. Under instant delivery this reproduces the
  // classic per-fired-update sequence exactly; under delayed delivery a
  // second payload arriving before the next generated update leaves the
  // sample clock alone (one sample per generated update, never more).
  FlushAnswerSamples(slot,
                     updates_generated_ > 0 ? updates_generated_ - 1 : 0);
  slot.protocol->HandleUpdate(id, v);
  slot.answer_cur_size = static_cast<double>(slot.protocol->answer().size());
  if (slot.answer_sampled_upto < updates_generated_) {
    slot.stats.answer_size.AddRepeated(slot.answer_cur_size, 1);
    ++slot.answer_sampled_upto;
  }
}

void SimulationCore::OnNetUpdate(StreamId id,
                                 const NetworkModel::Payload* payloads,
                                 std::size_t count, SimTime at) {
  obs::ScopedPhase obs_phase(options_.obs.profiler, obs::Phase::kNetFlush);
  ASF_TRACE_EVENT(options_.obs.tracer, obs::TraceEventType::kWireDeliver, at,
                  id, count != 0 ? payloads[count - 1].value : 0, count);
  // One invocation = one physical wire message: it serves every query
  // whose filter fired (each still accounts a logical update so
  // per-query costs remain comparable to a single-query run), and under
  // batching a payload may stand for several coalesced crossings.
  ++physical_updates_;
  NetStats& net = net_->stats();
  bool delivered = false;
  for (std::size_t i = 0; i < count; ++i) {
    const NetworkModel::Payload& p = payloads[i];
    Slot& slot = *slots_[p.slot];
    if (!slot.live) {
      // The query retired while the message was in flight; its books are
      // closed and its arena column is gone (DESIGN.md §9).
      net.dropped_retired += p.crossings;
      continue;
    }
    net.delivered_crossings += p.crossings;
    if (p.seq != 0) {
      // A reordering link stamped wire seqnos: suppress anything an
      // overtaker already obsoleted for this (query, stream) pair.
      if (slot.update_seq_floor.size() <= id) {
        slot.update_seq_floor.resize(id + 1, 0);
      }
      if (p.seq <= slot.update_seq_floor[id]) {
        net.suppressed_stale += p.crossings;
        continue;
      }
      slot.update_seq_floor[id] = p.seq;
    }
    DeliverUpdate(slot, id, p.value);
    if (net_delayed_) slot.stats.update_delay.Add(at - p.crossed_at);
    delivered = true;
  }
  // Under delayed delivery the per-update audit must also judge at
  // arrival instants — the answer just changed between generated
  // updates. (Inline deliveries are already covered by the audit in the
  // update handler.)
  if (net_delayed_ && delivered && options_.oracle.check_every_update) {
    JudgeLiveSlots();
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
  // The agent resets the membership reference against its *current* local
  // value (DESIGN.md §4, first bullet) — under delayed delivery that is
  // the value at arrival, not at send. Staleness compensation shrinks the
  // installed band by the configured guard margin (DESIGN.md §11).
  arena_.Deploy(id, slot.column,
                CompensateConstraint(constraint, options_.net.comp),
                streams_->value(id));
}

void SimulationCore::OnNetReconcile() {
  const std::vector<Value>& values = streams_->values();
  net_->stats().reconcile_exchanges += values.size();
  for (auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    if (!slot.live) continue;
    for (StreamId id = 0; id < values.size(); ++id) {
      const Value v = values[id];
      arena_.SyncReference(id, slot.column, v);
      if (slot.ctx->cached(id) != v) DeliverUpdate(slot, id, v);
    }
  }
  if (options_.oracle.check_every_update) JudgeLiveSlots();
}

void SimulationCore::OracleSampleTick() {
  JudgeLiveSlots();
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
    if (options_.oracle.check_every_update) JudgeLiveSlots();
  });

  // The lifecycle feed: every deploy (slot order), then every retirement
  // (slot order), stably sorted by time — the order of the changes at one
  // instant.
  struct Change {
    SimTime t;
    std::size_t slot;
    bool deploy;
  };
  std::vector<Change> feed;
  feed.reserve(2 * slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    feed.push_back({slots_[i]->deploy_at, i, true});
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const SimTime retire_at = slots_[i]->retire_at;
    // A retirement at or beyond the horizon is the same observable run as
    // never retiring — the query serves its whole window either way — so
    // skip it rather than charge a pointless uninstall broadcast at the
    // instant the run ends (no cost cliff between end == duration and
    // end == duration + epsilon).
    if (retire_at < options_.duration) feed.push_back({retire_at, i, false});
  }
  std::stable_sort(feed.begin(), feed.end(),
                   [](const Change& a, const Change& b) { return a.t < b.t; });

  // Periodic oracle sampling, if requested. OracleSampleTick reschedules
  // itself (a plain member function — no self-referential std::function).
  if (options_.oracle.sample_interval > 0) {
    scheduler_.ScheduleAt(
        std::min(options_.query_start + options_.oracle.sample_interval,
                 options_.duration),
        [this] { OracleSampleTick(); });
  }

  // Model-owned timers (partition reconnect exchanges) are scheduled
  // after the oracle tick: that fixes their FIFO seniority at equal
  // timestamps.
  net_->StartRun(options_.duration);

  streams_->Start(&scheduler_, options_.duration);

  // The drive loop (file comment): at each change's instant, the events
  // due before it run first, then the deploy or the retirement.
  for (const Change& change : feed) {
    scheduler_.RunBefore(change.t);
    if (change.deploy) {
      InstallSlot(change.slot);
    } else {
      RetireSlot(change.slot);
    }
  }
  scheduler_.RunUntil(options_.duration);
  net_->Finalize(options_.duration);
  // Every crossing offered to the network ends delivered, dropped or
  // still in flight at the horizon (NetStats).
  const NetStats& net = net_->stats();
  ASF_CHECK_MSG(net.crossings == net.delivered_crossings + net.dropped_loss +
                                     net.dropped_partition +
                                     net.dropped_retired +
                                     net.in_flight_crossings_at_end,
                "crossing conservation broken");

  // Every slot still live closes its books at the horizon (retired slots
  // closed theirs already), so each has exactly one answer-size sample per
  // update generated in its live window.
  for (auto& slot : slots_) {
    if (slot->live) CloseBooks(*slot);
  }
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
