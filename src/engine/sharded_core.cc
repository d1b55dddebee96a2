#include "engine/sharded_core.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "engine/config.h"
#include "engine/query_slot.h"
#include "engine/spill.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace asf {

namespace {

/// Wire messages with fewer payloads than this replay their reactions
/// inline: the fan-out's publish/park round trip only pays for itself
/// once several queries share the physical message.
constexpr std::size_t kMinParallelPayloads = 4;

// Routed views are rebound against the shard arenas' shared generation
// counter after every lifecycle event; a transport closure must never
// touch one that survived a rebind.
inline void AssertViewFresh(const FilterBank& bank, const FilterArena& arena) {
  (void)bank;
  (void)arena;
  ASF_DCHECK(bank.bound_generation() == arena.generation());
}
}  // namespace

/// Server-side runtime of one deployed query — the same shared runtime
/// the serial engine uses (engine/query_slot.h), so wiring and
/// accounting cannot drift between the two.
struct ShardedSimulationCore::Slot : engine_internal::QuerySlot {
  /// Shared-state side effects this slot's reaction journaled during the
  /// parallel phase of the current wire message; committed serially in
  /// payload order, then cleared. Only the executor owning the slot ever
  /// appends (a slot appears at most once per wire message).
  std::vector<ReplayOp> journal;
};

ShardedSimulationCore::ShardedSimulationCore(const Options& options)
    : options_(options),
      wall_start_(std::chrono::steady_clock::now()) {
  const std::size_t num_shards = std::max<std::size_t>(1, options_.shards);
  // Resolve the replay executor count (Options::replay_workers): the
  // executors are the shard worker threads plus the coordinator standing
  // in for worker 0, so W never exceeds the shard count. Fault stages
  // force serial replay — a probe's failover verdict is branched on
  // mid-reaction, which journaling cannot represent.
  {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    std::size_t w = options_.replay_workers == 0
                        ? std::min(num_shards, hw)
                        : options_.replay_workers;
    w = std::min(w, num_shards);
    if (options_.base.net.HasFaults()) w = 1;
    replay_workers_ = std::max<std::size_t>(1, w);
  }
  const std::size_t n = options_.base.source.NumStreams();
  ASF_CHECK_MSG(options_.base.source.type != SourceSpec::Type::kCustom,
                "custom stream sources cannot be sharded");
  ASF_CHECK(n > 0);

  // The coordinator's merged value view starts from the sources' initial
  // values. Per-stream determinism makes one full (unstarted) instance an
  // exact stand-in for all shards' initial state.
  const std::unique_ptr<StreamSet> initial =
      MakeStreams(options_.base.source);
  ASF_CHECK(initial != nullptr);
  values_ = initial->values();

  if (options_.base.spill.enabled()) {
    spiller_ = engine_internal::QueryStateSpiller::Create(options_.base.spill,
                                                          "sharded");
  }

  const DispatchPolicy dispatch =
      ResolveDispatchPolicy(options_.base.dispatch);
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const StreamPartition partition{s, num_shards};
    // Shard s owns streams {s, s + S, s + 2S, ...}: rows = how many ids
    // below n are congruent to s.
    const std::size_t rows = n / num_shards + (s < n % num_shards ? 1 : 0);
    shards_.push_back(std::make_unique<Shard>(
        MakeStreams(options_.base.source, partition), rows));
    shards_.back()->arena.EnableCellTracking(true);
    shards_.back()->arena.SetDispatchPolicy(dispatch);
    arena_ptrs_.push_back(&shards_.back()->arena);
  }
  // Compaction relocations retag the moved column's owner once — the
  // arenas evolve in lockstep, so the hook lives on arena 0 only and the
  // other arenas' Release returns are merely cross-checked (RetireSlot).
  arena_ptrs_.front()->set_relocation_callback(
      [this](std::size_t from, std::size_t to) {
        const std::size_t owner = column_owner_[from];
        column_owner_[to] = owner;
        slots_[owner]->column = to;
      });

  // The delivery model runs on the coordinator: sends happen during the
  // serial replay stage, and delayed deliveries queue in net_scheduler_,
  // drained in merged time order (so they cross epoch barriers exactly
  // where the serial engine would run them).
  net_ = MakeNetworkModel(options_.base.net, options_.base.seed);
  net_delayed_ = options_.base.net.DelaysDelivery();
  net_->Bind(
      &net_scheduler_,
      [this](StreamId id, const NetworkModel::Payload* payloads,
             std::size_t count, SimTime at) {
        OnNetUpdate(id, payloads, count, at);
      },
      [this](std::size_t slot, StreamId id, const FilterConstraint& constraint,
             SimTime at) { OnNetDeploy(slot, id, constraint, at); });
  net_->BindReconcile([this](SimTime at) { OnNetReconcile(at); });

  // Observability attachment (DESIGN.md §14). Rings are partitioned per
  // writer thread: shard worker s owns ring s, the coordinator (replay,
  // net, lifecycle, spill) owns ring S = num_shards.
  obs_coord_ring_ = static_cast<std::uint16_t>(num_shards);
  const obs::ObsHooks& obs = options_.base.obs;
  if (obs.tracer != nullptr) obs.tracer->EnsureRings(num_shards + 1);
  if (obs.tracer != nullptr || obs.metrics != nullptr) {
    net_->set_obs(obs.metrics != nullptr ? obs.metrics->net_sink() : nullptr,
                  obs.tracer, obs_coord_ring_);
  }
  if (spiller_) {
    spiller_->set_obs(obs.tracer, obs_coord_ring_, obs.profiler,
                      &net_scheduler_);
  }
  for (const auto& shard : shards_) shard->arena.set_profiler(obs.profiler);
}

ShardedSimulationCore::~ShardedSimulationCore() {
  // Workers parked as replay executors wait on the task channel, not the
  // epoch condvar: release them first or the shutdown notify is missed.
  CloseReplayTasks();
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }
}

std::size_t ShardedSimulationCore::AddQuery(const QueryDeployment& deployment) {
  const SimTime start =
      deployment.start < 0 ? options_.base.query_start : deployment.start;
  return DeployQuery(deployment, start);
}

std::size_t ShardedSimulationCore::DeployQuery(
    const QueryDeployment& deployment, SimTime at) {
  ASF_CHECK_MSG(!ran_, "DeployQuery after Run()");
  ASF_CHECK_MSG(at >= 0 && at < options_.base.duration,
                "deploy time outside [0, duration)");
  const std::size_t index = slots_.size();
  // Lightweight record until the deploy barrier wires the runtime
  // (WireSlot) — same lazy-wiring contract as the serial engine
  // (DESIGN.md §13).
  auto slot = std::make_unique<Slot>();
  slot->deployment = deployment;
  slot->index = index;
  slot->deploy_at = at;
  slot->stats.name = deployment.name;
  slots_.push_back(std::move(slot));
  if (deployment.end != kNeverRetire) RetireQuery(index, deployment.end);
  return index;
}

void ShardedSimulationCore::WireSlot(std::size_t index) {
  const std::size_t n = values_.size();

  // The wires between this query's server context and the shard-resident
  // filters. Values come from the coordinator's merged view (exact at the
  // current replay position); filter mutations route through the owning
  // shard's arena, which records the touched cell for the epoch replay.
  // Probes are blocking zero-time RPCs the network model only observes;
  // deploys route through it and install at the source on delivery.
  const auto make_transport = [this, index](FilterBank* bank) {
    Transport transport;
    transport.probe = [this, bank, index](StreamId id) -> std::optional<Value> {
      AssertViewFresh(*bank, *arena_ptrs_.front());
      if (replay_journal_mode_) {
        // Parallel phase (DESIGN.md §12): no fault stage is active on a
        // journaling run, so the RPC always succeeds; its shared effects
        // — the stats count and the reference sync — are journaled for
        // the serial commit. values_ is frozen during the delivery, so
        // this reads exactly what the serial engine's probe reads.
        Slot& slot = *slots_[index];
        const Value v = values_[id];
        slot.journal.push_back({ReplayOp::Kind::kControlRpc, id});
        slot.journal.push_back({ReplayOp::Kind::kSyncReference, id, v});
        return v;
      }
      // Same failover as the serial engine: a lost exchange reports no
      // value and the server context serves its cache.
      if (!net_->ControlRpc(id, coord_now_)) return std::nullopt;
      const Value v = values_[id];
      bank->SyncReference(id, v);  // the probed value is now "reported"
      return v;
    };
    transport.region_probe =
        [this, bank, index](StreamId id,
                            const Interval& region) -> std::optional<Value> {
      AssertViewFresh(*bank, *arena_ptrs_.front());
      if (replay_journal_mode_) {
        Slot& slot = *slots_[index];
        slot.journal.push_back({ReplayOp::Kind::kControlRpc, id});
        const Value v = values_[id];
        if (!region.Contains(v)) return std::nullopt;
        slot.journal.push_back({ReplayOp::Kind::kSyncReference, id, v});
        return v;
      }
      if (!net_->ControlRpc(id, coord_now_)) return std::nullopt;
      const Value v = values_[id];
      if (!region.Contains(v)) return std::nullopt;
      bank->SyncReference(id, v);
      return v;
    };
    transport.deploy = [this, index](StreamId id,
                                     const FilterConstraint& constraint) {
      if (replay_journal_mode_) {
        slots_[index]->journal.push_back(
            {ReplayOp::Kind::kDeploy, id, 0, constraint});
        return;
      }
      net_->SendDeploy(index, id, constraint, coord_now_);
    };
    return transport;
  };
  Slot& slot = *slots_[index];
  engine_internal::WireQuerySlot(&slot, slot.deployment, slot.deploy_at, n,
                                 options_.base.seed, index, make_transport);
  // Lets protocols relax their zero-delay belief assertions while
  // messages may be in transit (DESIGN.md §9).
  slot.ctx->set_delayed_delivery(net_delayed_);
}

void ShardedSimulationCore::RetireQuery(std::size_t slot, SimTime at) {
  ASF_CHECK_MSG(!ran_, "RetireQuery after Run()");
  ASF_CHECK(slot < slots_.size());
  ASF_CHECK_MSG(at > slots_[slot]->deploy_at,
                "retire time must follow the deploy time");
  slots_[slot]->retire_at = at;
}

void ShardedSimulationCore::RunOracle(Slot& slot) {
  // Same transit attribution as the serial engine (see
  // SimulationCore::RunOracle).
  const std::uint64_t before = slot.stats.oracle_violations;
  engine_internal::JudgeSlot(slot, values_);
  if (slot.stats.oracle_violations != before &&
      net_->InFlight(slot.index) > 0) {
    ++slot.stats.oracle_violations_in_flight;
  }
}

void ShardedSimulationCore::OracleTick() {
  for (auto& slot : slots_) {
    if (slot->live) RunOracle(*slot);
  }
}

void ShardedSimulationCore::RebindLiveViews() {
  const std::uint64_t generation = arena_ptrs_.front()->generation();
  for (std::size_t c = 0; c < column_owner_.size(); ++c) {
    slots_[column_owner_[c]]->filters->Retag(c, generation);
  }
}

void ShardedSimulationCore::InstallSlot(std::size_t index, SimTime at) {
  Slot& slot = *slots_[index];
  ASF_CHECK(!slot.live);
  WireSlot(index);

  // Take the same column in every shard arena; the arenas evolve in
  // lockstep, so the indices (and generations) always agree.
  const std::size_t column = arena_ptrs_.front()->Acquire();
  for (std::size_t s = 1; s < arena_ptrs_.size(); ++s) {
    ASF_CHECK(arena_ptrs_[s]->Acquire() == column);
  }
  slot.column = column;
  column_owner_.push_back(index);
  ASF_CHECK(column_owner_.size() == arena_ptrs_.front()->live());
  slot.live = true;
  *slot.filters = FilterBank(arena_ptrs_, column, values_.size(),
                             arena_ptrs_.front()->generation());
  RebindLiveViews();
  peak_live_ = std::max(peak_live_, column_owner_.size());

  slot.answer_sampled_upto = updates_generated_;
  slot.stats.deployed_at = at;
  ASF_TRACE_EVENT(options_.base.obs.tracer, obs_coord_ring_,
                  obs::TraceEventType::kDeploy, at,
                  static_cast<std::uint32_t>(index), 0, column_owner_.size());

  slot.stats.messages.set_phase(MessagePhase::kInit);
  slot.protocol->Initialize(at);
  slot.stats.messages.set_phase(MessagePhase::kMaintenance);
  const FilterBank::SilentCounts silent = slot.filters->CountSilentFilters();
  slot.stats.fp_filters_installed = silent.false_positive;
  slot.stats.fn_filters_installed = silent.false_negative;
  slot.answer_cur_size = static_cast<double>(slot.protocol->answer().size());
  if (options_.base.oracle.check_every_update) RunOracle(slot);
}

void ShardedSimulationCore::RetireSlot(std::size_t index, SimTime at) {
  Slot& slot = *slots_[index];
  ASF_CHECK(slot.live);

  // Uninstall this query's filters (termination counterpart of the
  // initial installation), then close the books inside the live window.
  slot.ctx->DeployAll(FilterConstraint::NoFilter());
  FlushAnswerSamples(slot, updates_generated_);
  slot.stats.retired_at = at;
  slot.stats.reinits = slot.protocol->reinit_count();
  slot.live = false;

  // Release the column in every arena; the compaction move is the same
  // everywhere, so arena 0's relocation callback retags the moved owner
  // once and the other arenas' returns are only cross-checked.
  const std::size_t moved = arena_ptrs_.front()->Release(slot.column);
  for (std::size_t s = 1; s < arena_ptrs_.size(); ++s) {
    ASF_CHECK(arena_ptrs_[s]->Release(slot.column) == moved);
  }
  column_owner_.pop_back();
  slot.column = FilterArena::kNoColumn;
  *slot.filters = FilterBank();  // detach: any further access trips checks
  RebindLiveViews();

  ASF_TRACE_EVENT(options_.base.obs.tracer, obs_coord_ring_,
                  obs::TraceEventType::kRetire, at,
                  static_cast<std::uint32_t>(index), 0, column_owner_.size());

  // Retires run at epoch barriers with every shard quiescent, so the
  // coordinator can park the closed books on pages and free the hot
  // copies right here (DESIGN.md §13). The journal is empty between wire
  // messages; drop its capacity along with the rest.
  if (spiller_) {
    slot.journal.shrink_to_fit();
    engine_internal::SpillRetiredSlot(*spiller_, slot);
  }
}

void ShardedSimulationCore::FlushAnswerSamples(Slot& slot,
                                               std::uint64_t upto) {
  engine_internal::FlushAnswerSamples(slot, upto);
}

void ShardedSimulationCore::ReplayUpdate(Shard& shard,
                                         const Shard::Update& update) {
  // The merged view advances for every update — exactly the StreamSet
  // state the serial engine's handler observes — even while no query is
  // live (the handler then returns before counting).
  values_[update.id] = update.value;
  const std::size_t live = column_owner_.size();
  if (live == 0) return;
  coord_now_ = update.time;
  ++updates_generated_;

  // Merge the update's speculated fired list with the strip's touched
  // columns, ascending. Columns whose cells were touched by a server
  // reaction earlier in this epoch lost their speculated entries;
  // re-evaluate them scalar against the canonical (already-overwritten,
  // hence exact) state. Untouched speculated entries are exact as
  // computed. Both inputs are sorted lists, so the replay cost is
  // O(speculated + touched) — output-sensitive like the dispatch itself,
  // with no O(live) mask walk.
  const StreamId row = update.id / shards_.size();
  const std::uint32_t* spec = shard.fired.data() + update.fired_begin;
  const std::size_t spec_n = update.fired_count;
  const std::vector<std::uint32_t>& touched = shard.arena.TouchedColumns(row);
  // Batched self-healing: re-evaluate every touched column of this strip
  // in one pass (a SIMD inside-mask per 64-column word, scalar for short
  // word runs) instead of one EvaluateColumn call per touched column per
  // reaction. touched_fired_ is the ascending fired subset; the merge
  // below only tests membership.
  shard.arena.EvaluateTouched(row, update.value, touched, &touched_fired_);
  fired_slots_.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  while (i < spec_n || j < touched.size()) {
    std::uint32_t c;
    bool is_touched;
    if (j == touched.size() || (i < spec_n && spec[i] < touched[j])) {
      c = spec[i++];
      is_touched = false;
    } else {
      c = touched[j++];
      is_touched = true;
      if (i < spec_n && spec[i] == c) ++i;  // superseded speculation
    }
    if (c >= live) continue;  // stale touched entries cannot exist; safety
    if (is_touched) {
      while (k < touched_fired_.size() && touched_fired_[k] < c) ++k;
      if (k == touched_fired_.size() || touched_fired_[k] != c) continue;
    }
    fired_slots_.push_back(column_owner_[c]);
  }
  // The crossings travel through the network model and come back via
  // OnNetUpdate — inside this replay step for instant delivery, drained
  // later in merged time order otherwise (DESIGN.md §9).
  if (!fired_slots_.empty()) {
    ASF_TRACE_EVENT(options_.base.obs.tracer, obs_coord_ring_,
                    obs::TraceEventType::kWireSend, update.time, update.id,
                    update.value, fired_slots_.size());
    net_->SendUpdate(update.id, update.value, fired_slots_, update.time);
  }
  if (options_.base.oracle.check_every_update) {
    for (auto& slot : slots_) {
      if (slot->live) RunOracle(*slot);
    }
  }
}

void ShardedSimulationCore::OnNetUpdate(StreamId id,
                                        const NetworkModel::Payload* payloads,
                                        std::size_t count, SimTime at) {
  obs::ScopedPhase obs_phase(options_.base.obs.profiler,
                             obs::Phase::kNetFlush);
  ASF_TRACE_EVENT(options_.base.obs.tracer, obs_coord_ring_,
                  obs::TraceEventType::kWireDeliver, at, id,
                  count != 0 ? payloads[count - 1].value : 0, count);
  if (replay_workers_ > 1 && count >= kMinParallelPayloads) {
    ParallelDeliverWireMessage(id, payloads, count, at);
    return;
  }
  engine_internal::DeliverWireMessage(
      slots_, *net_, net_delayed_, options_.base.oracle.check_every_update,
      updates_generated_, physical_updates_, id, payloads, count, at,
      [this] {
        for (auto& slot : slots_) {
          if (slot->live) RunOracle(*slot);
        }
      });
}

void ShardedSimulationCore::ParallelDeliverWireMessage(
    StreamId id, const NetworkModel::Payload* payloads, std::size_t count,
    SimTime at) {
  // Serial prepass: DeliverWireMessage's shared accounting, in payload
  // order, through the same admission gate — one physical message,
  // per-payload drop/suppression books, seq floors (DESIGN.md §12).
  ++physical_updates_;
  task_admit_.assign(count, 0);
  bool delivered = false;
  for (std::size_t i = 0; i < count; ++i) {
    const NetworkModel::Payload& p = payloads[i];
    if (engine_internal::AdmitPayload(*slots_[p.slot], *net_, id, p)) {
      task_admit_[i] = 1;
      delivered = true;
    }
  }
  if (delivered) {
    ASF_DCHECK(assist_open_);
    // Parallel phase: per-slot protocol reactions, partitioned
    // slot % W across the executors. Each reaction touches only its
    // slot's private state; every shared side effect is journaled by the
    // transports. Publish the task fields, then release them with the
    // sequence increment; the coordinator is executor 0.
    replay_journal_mode_ = true;
    task_payloads_ = payloads;
    task_count_ = count;
    task_stream_ = id;
    task_at_ = at;
    task_kind_ = ReplayTask::kDeliver;
    task_pending_.store(static_cast<std::uint32_t>(replay_workers_ - 1),
                        std::memory_order_relaxed);
    task_seq_.fetch_add(1, std::memory_order_release);
    task_seq_.notify_all();
    RunExecutorShare(0);
    for (;;) {
      const std::uint32_t pending =
          task_pending_.load(std::memory_order_acquire);
      if (pending == 0) break;
      task_pending_.wait(pending, std::memory_order_acquire);
    }
    replay_journal_mode_ = false;
    // Serial commit: replay every delivered slot's journal in payload
    // order, so net counters, reference syncs, constraint sends — and
    // any jitter RNG draws they trigger — happen in exactly the serial
    // engine's order.
    for (std::size_t i = 0; i < count; ++i) {
      if (task_admit_[i] != 0) CommitSlotJournal(*slots_[payloads[i].slot]);
    }
  }
  // DeliverWireMessage's arrival-time re-audit, after the whole message
  // like the serial path.
  if (net_delayed_ && delivered && options_.base.oracle.check_every_update) {
    for (auto& slot : slots_) {
      if (slot->live) RunOracle(*slot);
    }
  }
}

void ShardedSimulationCore::RunExecutorShare(std::size_t executor) {
  const NetworkModel::Payload* payloads = task_payloads_;
  const std::size_t count = task_count_;
  const StreamId id = task_stream_;
  const SimTime at = task_at_;
  for (std::size_t i = 0; i < count; ++i) {
    const NetworkModel::Payload& p = payloads[i];
    if (task_admit_[i] == 0 || p.slot % replay_workers_ != executor) continue;
    Slot& slot = *slots_[p.slot];
    engine_internal::DeliverUpdateToSlot(slot, id, p.value, at,
                                         updates_generated_);
    if (net_delayed_) slot.stats.update_delay.Add(at - p.crossed_at);
  }
}

void ShardedSimulationCore::CommitSlotJournal(Slot& slot) {
  for (const ReplayOp& op : slot.journal) {
    switch (op.kind) {
      case ReplayOp::Kind::kControlRpc:
        // Always succeeds here (journaling runs carry no fault stage);
        // performs the stats count the parallel phase deferred.
        net_->ControlRpc(op.id, coord_now_);
        break;
      case ReplayOp::Kind::kSyncReference:
        slot.filters->SyncReference(op.id, op.value);
        break;
      case ReplayOp::Kind::kDeploy:
        net_->SendDeploy(slot.index, op.id, op.constraint, coord_now_);
        break;
    }
  }
  slot.journal.clear();
}

void ShardedSimulationCore::AssistReplay(std::size_t executor,
                                         std::uint64_t seen) {
  for (;;) {
    task_seq_.wait(seen, std::memory_order_acquire);
    const std::uint64_t cur = task_seq_.load(std::memory_order_acquire);
    if (cur == seen) continue;  // spurious wake
    seen = cur;
    const bool close = task_kind_ == ReplayTask::kClose;
    if (!close) RunExecutorShare(executor);
    if (task_pending_.fetch_sub(1, std::memory_order_release) == 1) {
      task_pending_.notify_all();
    }
    if (close) return;
  }
}

void ShardedSimulationCore::CloseReplayTasks() {
  if (!assist_open_) return;
  task_kind_ = ReplayTask::kClose;
  task_pending_.store(static_cast<std::uint32_t>(replay_workers_ - 1),
                      std::memory_order_relaxed);
  task_seq_.fetch_add(1, std::memory_order_release);
  task_seq_.notify_all();
  for (;;) {
    const std::uint32_t pending = task_pending_.load(std::memory_order_acquire);
    if (pending == 0) break;
    task_pending_.wait(pending, std::memory_order_acquire);
  }
  assist_open_ = false;
}

bool ShardedSimulationCore::PinThreadToCore(std::size_t core) {
#if defined(__linux__)
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % hw), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

void ShardedSimulationCore::OnNetDeploy(std::size_t slot_index, StreamId id,
                                        const FilterConstraint& constraint,
                                        SimTime at) {
  Slot& slot = *slots_[slot_index];
  if (!slot.live) {
    ++net_->stats().deploy_dropped_retired;
    ASF_TRACE_EVENT(options_.base.obs.tracer, obs_coord_ring_,
                    obs::TraceEventType::kWireDrop, at, id, 0, slot_index);
    return;
  }
  (void)at;
  AssertViewFresh(*slot.filters, *arena_ptrs_.front());
  // Routed through the bank so the owning shard's arena records the
  // touched cell for this epoch's self-healing replay (DESIGN.md §8).
  // Compensation mirrors the serial engine (DESIGN.md §11).
  slot.filters->Deploy(
      id, CompensateConstraint(constraint, options_.base.net.comp),
      values_[id]);
}

void ShardedSimulationCore::OnNetReconcile(SimTime at) {
  // Runs inside DrainDeliveries at the up-edge's merged time position, so
  // values_ is exactly the serial engine's StreamSet state there.
  engine_internal::ReconcileSlots(slots_, values_, *net_, updates_generated_,
                                  at);
  if (options_.base.oracle.check_every_update) {
    for (auto& slot : slots_) {
      if (slot->live) RunOracle(*slot);
    }
  }
}

void ShardedSimulationCore::OracleSampleTick() {
  OracleTick();
  if (net_scheduler_.now() + options_.base.oracle.sample_interval <=
      options_.base.duration) {
    net_scheduler_.ScheduleAfter(options_.base.oracle.sample_interval,
                                 [this] { OracleSampleTick(); });
  }
}

void ShardedSimulationCore::DrainDeliveries(SimTime limit, SimTime to) {
  // Event callbacks (periodic oracle samples, OnNetUpdate / OnNetDeploy /
  // batch flushes) run here, between replayed updates, exactly where the
  // serial scheduler would interleave them. Ticks and deliveries share
  // one queue so exact-tie order (a batch flush landing on a sample grid
  // point) follows FIFO scheduling seniority, like the serial engine.
  for (;;) {
    const SimTime next = net_scheduler_.NextEventTime();
    if (next > limit || next >= to) break;
    coord_now_ = next;
    net_scheduler_.Step();
  }
}

void ShardedSimulationCore::ReplayEpoch(SimTime from, SimTime to) {
  (void)from;
  // S-way merge of the shard logs by (time, stream id). Same-time ties
  // across shards are ordered by stream id — the documented divergence
  // from the serial scheduler's FIFO seniority, unreachable under
  // continuous-time workloads.
  for (;;) {
    Shard* best = nullptr;
    for (const auto& shard : shards_) {
      if (shard->cursor >= shard->log.size()) continue;
      const Shard::Update& u = shard->log[shard->cursor];
      if (best == nullptr) {
        best = shard.get();
        continue;
      }
      const Shard::Update& b = best->log[best->cursor];
      if (u.time < b.time || (u.time == b.time && u.id < b.id)) {
        best = shard.get();
      }
    }
    if (best == nullptr) break;
    const Shard::Update& update = best->log[best->cursor];
    // Periodic oracle samples and pending network deliveries interleave
    // in time order (both before the update at exactly equal timestamps;
    // see header).
    DrainDeliveries(update.time, to);
    ReplayUpdate(*best, update);
    ++best->cursor;
  }
  DrainDeliveries(to, to);
}

void ShardedSimulationCore::WorkerLoop(std::size_t shard_index) {
  if (pinned_) PinThreadToCore(shard_index);
  Shard& shard = *shards_[shard_index];
  // Workers 1..W-1 park as replay executors after each epoch's
  // speculation; worker 0 never does (the coordinator is executor 0, and
  // under pinning they share core 0 without ever running concurrently).
  const bool assist = shard_index > 0 && shard_index < replay_workers_;
  std::uint64_t seen_seq = 0;
  for (;;) {
    SimTime to;
    bool final_flush;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || epoch_seq_ != seen_seq; });
      if (shutdown_) return;
      seen_seq = epoch_seq_;
      to = speculate_to_;
      final_flush = final_flush_;
    }
    {
      // Each worker's speculation wall accrues to the sweep phase in its
      // own thread-local profiler state; Merged() folds them together.
      obs::ScopedPhase obs_phase(options_.base.obs.profiler,
                                 obs::Phase::kSweep);
      if (final_flush) {
        shard.scheduler.RunUntil(to);  // events at the horizon itself
      } else {
        shard.scheduler.RunBefore(to);
      }
    }
    // Snapshot the task sequence *before* announcing speculation done:
    // the coordinator publishes replay tasks only after every worker has
    // announced, so no task can land between this load and the wait in
    // AssistReplay — the wait is guaranteed to observe it.
    std::uint64_t replay_seen = 0;
    if (assist) replay_seen = task_seq_.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
    if (assist) AssistReplay(shard_index, replay_seen);
  }
}

void ShardedSimulationCore::SpeculateEpoch(SimTime from, SimTime to) {
  (void)from;
  // Release executors still parked from the previous epoch's replay back
  // to the epoch condvar before signaling the next round. (The window
  // stays open across ReplayEpoch's end because the final delivery drain
  // after the epoch loop can still fan out — Run() closes it there.)
  CloseReplayTasks();
  // Fresh epoch: logs restart, speculation state is the canonical state
  // (all barrier mutations applied), touched cells reset.
  epoch_live_ = arena_ptrs_.front()->live();
  for (const auto& shard : shards_) {
    shard->log.clear();
    shard->fired.clear();
    shard->cursor = 0;
    shard->arena.ClearTouched();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    speculate_to_ = to;
    final_flush_ = to >= options_.base.duration;
    workers_done_ = 0;
    ++epoch_seq_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_done_ == shards_.size(); });
  }
  // Every worker has announced and snapshotted the task sequence; workers
  // 1..W-1 are parked (or parking) in AssistReplay, so the coming replay
  // stage may publish fan-out tasks.
  assist_open_ = replay_workers_ > 1;
}

void ShardedSimulationCore::Run() {
  ASF_CHECK_MSG(!ran_, "Run() called twice");
  ASF_CHECK_MSG(!slots_.empty(), "Run() without any deployed query");
  ran_ = true;
  const SimTime duration = options_.base.duration;

  // Root profiler scope on the coordinator: epoch orchestration and
  // everything no finer phase claims accrues to kOther (worker threads
  // report their speculation wall separately under kSweep).
  obs::ScopedPhase obs_root(options_.base.obs.profiler, obs::Phase::kOther);

  // Gauges sampled at snapshot grid points; the sharded engine drains
  // due grid points at each epoch barrier (hooks.h), so a sample at T
  // reflects the merged state of the barrier that covers T.
  obs::MetricsRegistry* const obs_reg = options_.base.obs.metrics;
  const SimTime obs_every = options_.base.obs.metrics_every;
  SimTime obs_next_snap = obs_every;
  if (obs_reg != nullptr) {
    obs_reg->RegisterGauge("updates_generated", [this] {
      return static_cast<double>(updates_generated_);
    });
    obs_reg->RegisterGauge("live_queries", [this] {
      return static_cast<double>(column_owner_.size());
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
      return spiller_ ? static_cast<double>(
                            spiller_->Telemetry().pool_resident_bytes)
                      : 0.0;
    });
    obs_reg->RegisterGauge("replay_fraction", [this] {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 wall_start_)
                                 .count();
      return elapsed > 0 ? replay_seconds_ / elapsed : 0.0;
    });
  }
  const auto obs_drain_snapshots = [&](SimTime upto) {
    if (obs_reg == nullptr || obs_every <= 0) return;
    while (obs_next_snap <= upto && obs_next_snap <= duration) {
      obs_reg->SnapshotAt(obs_next_snap);
      obs_next_snap += obs_every;
    }
  };

  // Each shard speculates into its log: every local update is recorded
  // and, while queries are live, evaluated against the shard's strips
  // under the epoch-start filter state.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = shards_[s].get();
    const std::uint16_t ring = static_cast<std::uint16_t>(s);
    shard->streams->set_update_handler(
        [this, shard, ring](StreamId id, Value v, SimTime t) {
          (void)ring;
          Shard::Update update{t, id, v,
                               static_cast<std::uint32_t>(shard->fired.size()),
                               0};
          if (epoch_live_ > 0) {
            ASF_TRACE_EVENT(options_.base.obs.tracer, ring,
                            obs::TraceEventType::kValueUpdate, t, id, v, 0);
            // The configured dispatch policy (SIMD scan or stabbing
            // index) speculates under the epoch-start filter state.
            shard->arena.DispatchUpdate(id / shards_.size(), v,
                                        &shard->fired_scratch);
            update.fired_count =
                static_cast<std::uint32_t>(shard->fired_scratch.size());
#if ASF_OBS_TRACE_COMPILED
            if (options_.base.obs.tracer != nullptr &&
                options_.base.obs.tracer->Wants(obs::kCatCrossing)) {
              for (const std::uint32_t c : shard->fired_scratch) {
                options_.base.obs.tracer->Emit(
                    ring, obs::TraceEventType::kCrossing, t, c, v,
                    shard->fired_scratch.size());
              }
            }
#endif
            shard->fired.insert(shard->fired.end(),
                                shard->fired_scratch.begin(),
                                shard->fired_scratch.end());
          }
          shard->log.push_back(update);
        });
    shard->streams->Start(&shard->scheduler, duration);
  }

  // Periodic oracle sampling: the same self-rescheduling event the
  // serial engine schedules, living in the coordinator's queue. Scheduled
  // before any delivery can be (no send precedes Run), so its FIFO
  // seniority against flushes and deliveries matches the serial
  // scheduler's.
  if (options_.base.oracle.sample_interval > 0) {
    net_scheduler_.ScheduleAt(
        std::min(
            options_.base.query_start + options_.base.oracle.sample_interval,
            duration),
        [this] { OracleSampleTick(); });
  }

  // Model-owned timers (partition reconnect exchanges) are scheduled
  // after the oracle tick, exactly like the serial engine calls StartRun
  // after scheduling it, so FIFO seniority at equal timestamps matches.
  net_->StartRun(duration);

  // Epoch boundaries: a regular speculation grid plus every lifecycle
  // event time (lifecycle executes only at barriers, keeping the column
  // space fixed within an epoch).
  const SimTime epoch_len =
      options_.epoch > 0 ? options_.epoch : duration / 128;
  std::vector<std::pair<SimTime, std::size_t>> deploys;   // (time, slot)
  std::vector<std::pair<SimTime, std::size_t>> retires;   // (time, slot)
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    deploys.emplace_back(slots_[i]->deploy_at, i);
    // A retirement at or beyond the horizon is the same observable run as
    // never retiring (see SimulationCore::Run).
    if (slots_[i]->retire_at < duration) {
      retires.emplace_back(slots_[i]->retire_at, i);
    }
  }
  std::stable_sort(deploys.begin(), deploys.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::stable_sort(retires.begin(), retires.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t next_deploy = 0;
  std::size_t next_retire = 0;

  // Spin up the worker pool, pinning first so the workers (which read
  // pinned_ at startup) inherit the decision: coordinator on core 0,
  // shard worker s on core s mod hardware_concurrency.
  if (options_.pin_threads) pinned_ = PinThreadToCore(0);
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }

  SimTime now = 0;
  std::uint64_t obs_epoch = 0;
  while (now < duration) {
    // Barrier at `now`: lifecycle events in the serial order — every
    // deployment first, then every retirement, each in slot order.
    coord_now_ = now;
    obs_drain_snapshots(now);
    ASF_TRACE_EVENT(options_.base.obs.tracer, obs_coord_ring_,
                    obs::TraceEventType::kEpochBarrier, now, 0, 0, obs_epoch);
    ++obs_epoch;
    while (next_deploy < deploys.size() && deploys[next_deploy].first == now) {
      InstallSlot(deploys[next_deploy].second, now);
      ++next_deploy;
    }
    while (next_retire < retires.size() && retires[next_retire].first == now) {
      RetireSlot(retires[next_retire].second, now);
      ++next_retire;
    }
    // Coordinator events at exactly the barrier time (periodic samples,
    // deliveries) run in the next epoch's replay drain — after lifecycle,
    // like the serial scheduler's FIFO order (lifecycle events hold the
    // lowest sequence numbers).

    // Next boundary: the speculation grid or the next lifecycle event,
    // whichever comes first.
    SimTime next = std::min(now + epoch_len, duration);
    if (next_deploy < deploys.size()) {
      next = std::min(next, deploys[next_deploy].first);
    }
    if (next_retire < retires.size()) {
      next = std::min(next, retires[next_retire].first);
    }
    ASF_CHECK(next > now);

    {
      obs::ScopedPhase obs_phase(options_.base.obs.profiler,
                                 obs::Phase::kSpeculate);
      SpeculateEpoch(now, next);
    }
    const auto replay_start = std::chrono::steady_clock::now();
    {
      obs::ScopedPhase obs_phase(options_.base.obs.profiler,
                                 obs::Phase::kReplay);
      ReplayEpoch(now, next);
    }
    replay_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      replay_start)
            .count();
    now = next;
  }
  // Horizon: replay events scheduled at exactly t = duration (the final
  // flush ran them in SpeculateEpoch's last round since to == duration),
  // drain samples and deliveries landing at the horizon itself, count the
  // messages still in flight, then close every live slot's books, exactly
  // like the serial run loop. Deliveries at the horizon can still fan
  // out, so the executors are released only after the drain.
  const auto drain_start = std::chrono::steady_clock::now();
  obs_drain_snapshots(duration);
  {
    obs::ScopedPhase obs_phase(options_.base.obs.profiler,
                               obs::Phase::kReplay);
    DrainDeliveries(duration, kInf);
  }
  CloseReplayTasks();
  replay_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    drain_start)
          .count();
  net_->Finalize(duration);

  for (auto& slot : slots_) {
    if (!slot->live) continue;
    FlushAnswerSamples(*slot, updates_generated_);
    slot->stats.reinits = slot->protocol->reinit_count();
    slot->stats.retired_at = duration;
  }
  if (obs_reg != nullptr) obs_reg->ClearGauges();
  wall_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
}

const QueryRunStats& ShardedSimulationCore::query_stats(std::size_t i) const {
  ASF_CHECK(i < slots_.size());
  engine_internal::EnsureStatsResident(spiller_.get(), *slots_[i]);
  return slots_[i]->stats;
}

SpillTelemetry ShardedSimulationCore::spill_telemetry() const {
  return spiller_ ? spiller_->Telemetry() : SpillTelemetry();
}

DispatchStats ShardedSimulationCore::dispatch_stats() const {
  DispatchStats stats;
  for (const FilterArena* arena : arena_ptrs_) {
    stats += arena->dispatch_stats();
  }
  return stats;
}

}  // namespace asf
