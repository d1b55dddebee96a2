#ifndef ASF_SIM_SCHEDULER_H_
#define ASF_SIM_SCHEDULER_H_

#include <array>
#include <cstddef>
#include <cstdlib>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

/// \file
/// Discrete-event simulation kernel.
///
/// This is the substrate that replaces CSIM 19 in the paper's evaluation
/// (§6: "We use CSIM 19 to simulate the environment in Figure 3"). The
/// protocols only require a simulated clock and deterministic event
/// dispatch; messages between streams and the server are delivered
/// instantaneously within the handling of the event that produced them,
/// which matches the paper's correctness assumption that "stream values do
/// not change during resolution".
///
/// Determinism: events at equal timestamps run in scheduling (FIFO) order,
/// so a (workload, seed) pair fully determines a run.
///
/// The kernel is allocation-free in steady state: the event queue is a
/// hand-rolled 4-ary min-heap of POD (time, seq, id) keys, callbacks live
/// in a chunked slab with free-list reuse, captures up to
/// EventCallback::kInlineSize bytes are stored inline (no heap
/// allocation), and cancellation uses sequence-tagged tombstones — no
/// hash sets anywhere on the hot path.
///
/// Fixed-delay lanes: the events ScheduleAfter places with one delay d
/// arrive in increasing (time, seq) order, because now() never decreases
/// and seq always grows. The first kMaxLanes (4) distinct delays a
/// scheduler sees therefore each get a FIFO lane with O(1) push and pop —
/// the network's constant link latency and the oracle's sampling period
/// are such delays. Further delays, and every ScheduleAt and Rearm, keep
/// using the heap. The next event is the smaller key of the heap top and
/// the lane heads, so the dispatch order is exactly the one a single heap
/// over the same keys gives; Cancel leaves a tombstone in whichever queue
/// holds the node.
///
/// Re-arming: a source that reschedules itself after every event (a
/// walk stream's next step, a trace cursor's next record) calls Rearm
/// from inside its own dispatch. The event keeps its slot and its
/// callable, so a step costs one heap push and pop and nothing else, and
/// it takes the sequence number a ScheduleAt at that moment would have
/// taken, so the dispatch order is the one rescheduling gives.
///
/// Driving from outside: RunUntil(t) and RunBefore(t) are the only ways
/// to advance the clock. RunBefore(t) runs everything due strictly before
/// t and stops the clock at t, so a driver can act at instant t ahead of
/// every event due then. The engine times query deploys and retirements
/// that way, as steps of its own loop rather than as events.

namespace asf {

/// Handle for a scheduled event, usable with Scheduler::Cancel. It is the
/// low word of the event's queue key, (seq << kSlotBits | slab slot):
/// sequence numbers are never reused, so a stale handle is rejected in
/// O(1) without any lookup structure.
using EventId = std::uint64_t;

/// A move-only callable with small-buffer optimization, the event
/// payload type of the kernel. Captures of at most kInlineSize bytes
/// (every self-rescheduling source lambda and engine event in this
/// codebase) are stored inline; larger or over-aligned callables fall
/// back to one heap allocation, exactly like std::function.
class EventCallback {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::remove_cv_t<std::remove_reference_t<F>>, EventCallback>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Decayed = std::decay_t<F>;
    if constexpr (sizeof(Decayed) <= kInlineSize &&
                  alignof(Decayed) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      ::new (static_cast<void*>(buf_)) Decayed(std::forward<F>(fn));
      ops_ = &kInlineOps<Decayed>;
    } else {
      ::new (static_cast<void*>(buf_))
          Decayed*(new Decayed(std::forward<F>(fn)));
      ops_ = &kHeapOps<Decayed>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  /// True when a callable is stored.
  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    ASF_DCHECK(ops_ != nullptr);
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs dst's storage from src's and destroys src's.
    /// nullptr means trivially relocatable: a plain byte copy suffices.
    void (*relocate)(void* src, void* dst);
    /// nullptr means trivially destructible: nothing to do.
    void (*destroy)(void* self);
  };

  template <typename F>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*std::launder(reinterpret_cast<F*>(self)))(); },
      std::is_trivially_copyable_v<F>
          ? nullptr
          : +[](void* src, void* dst) {
              F* f = std::launder(reinterpret_cast<F*>(src));
              ::new (dst) F(std::move(*f));
              f->~F();
            },
      std::is_trivially_destructible_v<F>
          ? nullptr
          : +[](void* self) {
              std::launder(reinterpret_cast<F*>(self))->~F();
            }};

  template <typename F>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**std::launder(reinterpret_cast<F**>(self)))(); },
      nullptr,  // relocating the owning pointer is a byte copy
      [](void* self) { delete *std::launder(reinterpret_cast<F**>(self)); }};

  void MoveFrom(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.buf_, buf_);
      } else {
        __builtin_memcpy(buf_, other.buf_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// A time-ordered event queue with an explicit clock.
class Scheduler {
 public:
  using Callback = EventCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()). Returns a
  /// handle that can be cancelled.
  EventId ScheduleAt(SimTime t, Callback fn);

  /// Schedules `fn` after `delay` (must be >= 0) from now(). Dispatches
  /// exactly like ScheduleAt(now() + delay, fn); the event rides the
  /// delay's FIFO lane when it has one (file comment).
  EventId ScheduleAfter(SimTime delay, Callback fn);

  /// Puts the event that is dispatching back in the queue at absolute
  /// time `t` (>= now()), keeping its slot and its callable: the same
  /// callable runs again at `t`, with whatever state it holds. The event
  /// takes the sequence number a ScheduleAt(t, ...) made at this point
  /// would take, so it dispatches exactly as that reschedule would.
  /// Returns the event's new handle; its previous one is stale. Callable
  /// only from inside a dispatch, at most once per dispatch (ASF_CHECK).
  EventId Rearm(SimTime t);

  /// Cancels a pending event in O(1): the slab slot is released for reuse
  /// immediately and the queued key (heap or lane) becomes a
  /// sequence-mismatched tombstone, discarded lazily when it comes next.
  /// Returns false if the event already ran, was already cancelled, or
  /// never existed. An event that re-armed itself may cancel that from
  /// inside the same dispatch; its callable is destroyed once it returns.
  bool Cancel(EventId id);

  /// Runs all events with time <= `t`, then advances the clock to exactly
  /// `t`. Returns the number of events dispatched.
  std::size_t RunUntil(SimTime t);

  /// Runs all events with time < `t`, then advances the clock to exactly
  /// `t`; the events due at `t` stay pending. Returns the number of events
  /// dispatched.
  std::size_t RunBefore(SimTime t);

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return live_; }

  /// Total events dispatched so far.
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  /// POD heap key, 16 bytes so four fit a cache line. The whole ordering
  /// is one unsigned 128-bit comparison: the high 64 bits are the raw IEEE
  /// bit pattern of the (non-negative — ScheduleAt enforces t >= now >= 0)
  /// event time, which for non-negative doubles orders identically to the
  /// values; the low 64 bits pack a monotonically increasing sequence
  /// number over the slab slot (lower kSlotBits). Sequence order breaks
  /// time ties in schedule order, preserving FIFO dispatch at equal
  /// timestamps even though slab-encoded ids are reused, and the slot
  /// rides along for free.
  struct HeapNode {
    unsigned __int128 key;

    SimTime time() const {
      std::uint64_t bits = static_cast<std::uint64_t>(key >> 64);
      SimTime t;
      static_assert(sizeof(t) == sizeof(bits));
      __builtin_memcpy(&t, &bits, sizeof(t));
      return t;
    }
  };

  static HeapNode MakeNode(SimTime t, std::uint64_t seq,
                           std::uint32_t index) {
    t += 0.0;  // canonicalize -0.0 (sign bit would corrupt the ordering)
    std::uint64_t bits;
    __builtin_memcpy(&bits, &t, sizeof(bits));
    return HeapNode{(static_cast<unsigned __int128>(bits) << 64) |
                    MakeId(seq, index)};
  }

  /// Slab capacity bound: up to 2^24 (16.7M) simultaneously pending
  /// events, leaving 40 bits of sequence (1.1e12 total schedules per
  /// Scheduler). Both limits are ASF_CHECKed.
  static constexpr std::uint32_t kSlotBits = 24;

  /// One slab cell: the callback plus its validity tag. `seq`, the
  /// sequence number the slot is armed under, authenticates both queued
  /// nodes and public EventIds — a stale node or handle whose slot was
  /// recycled for a newer event can never match, because sequence numbers
  /// are globally unique.
  struct Slot {
    EventCallback fn;
    std::uint64_t seq = 0;
    bool armed = false;
  };

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  // slots

  static bool Before(const HeapNode& a, const HeapNode& b) {
    return a.key < b.key;
  }

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  /// The (seq, slot) word of a node, which is its event's EventId.
  static EventId NodeId(const HeapNode& node) {
    return static_cast<EventId>(node.key);
  }
  static std::uint32_t SlotIndex(EventId id) {
    return static_cast<std::uint32_t>(id) & ((1u << kSlotBits) - 1);
  }
  static std::uint64_t Seq(EventId id) { return id >> kSlotBits; }
  static EventId MakeId(std::uint64_t seq, std::uint32_t index) {
    return (seq << kSlotBits) | index;
  }

  /// Takes a slot from the free list, growing the slab by one chunk when
  /// empty. Chunks are stable in memory: growing never moves live slots.
  std::uint32_t AcquireSlot();

  /// Claims the next sequence number.
  std::uint64_t NextSeq();

  /// Stores `fn` in a fresh slot armed under `seq`; returns the slot index.
  std::uint32_t Arm(std::uint64_t seq, Callback fn);

  /// Destroys the slot's callback and recycles it, disarmed: every
  /// outstanding heap key / EventId referring to it is stale, and stays
  /// so once the slot is armed again under a fresh sequence number.
  void ReleaseSlot(std::uint32_t index);

  /// Returns the live node with the smallest key across the heap top and
  /// the lane heads (nullptr if none), discarding the tombstones it meets
  /// on the way, and records its queue in peek_source_. The single place
  /// the tombstone skip logic lives.
  const HeapNode* PeekLive();

  /// Removes the node PeekLive last returned from its queue.
  void PopPeeked();

  /// Pops the node PeekLive just returned and runs its event. Dispatches
  /// do not nest: no callback advances its own scheduler.
  void DispatchPeeked(const HeapNode* next);

  /// RunUntil (`inclusive`) and RunBefore.
  std::size_t RunTo(SimTime t, bool inclusive);

  void HeapPush(HeapNode node);
  void HeapPopRoot();
  void HeapGrow();

  /// 4-ary min-heap storage with standard indexing (children of i at
  /// 4i+1 .. 4i+4) but with element 0 placed at byte offset 48 of a
  /// 64-byte-aligned allocation: every sibling group of four 16-byte
  /// nodes then starts at a 64-byte boundary (byte (4i+1)*16 + 48 =
  /// 64(i+1)), so each sift level touches exactly one cache line.
  struct AlignedHeap {
    void* raw = nullptr;       ///< 64-aligned allocation
    HeapNode* data = nullptr;  ///< raw + 48 bytes
    std::size_t size = 0;
    std::size_t capacity = 0;

    AlignedHeap() = default;
    AlignedHeap(const AlignedHeap&) = delete;
    AlignedHeap& operator=(const AlignedHeap&) = delete;
    ~AlignedHeap() { std::free(raw); }

    HeapNode& operator[](std::size_t i) { return data[i]; }
    bool empty() const { return size == 0; }
  };

  /// FIFO of the pending nodes ScheduleAfter placed with one delay. Keys
  /// arrive in increasing order (file comment), so the head is the lane's
  /// minimum. Stored as a power-of-two ring that only grows.
  struct Lane {
    SimTime delay = 0;
    std::vector<HeapNode> ring;
    std::size_t head = 0;
    std::size_t size = 0;

    const HeapNode& front() const { return ring[head]; }
    void Push(HeapNode node);
    void Pop() {
      head = (head + 1) & (ring.size() - 1);
      --size;
    }
  };

  static constexpr std::size_t kMaxLanes = 4;
  /// peek_source_ value naming the heap rather than a lane.
  static constexpr std::size_t kHeapSource = kMaxLanes;

  /// The lane for `delay`, opening one while fewer than kMaxLanes exist;
  /// nullptr when the delay has no lane (the event goes to the heap).
  Lane* LaneFor(SimTime delay);

  AlignedHeap heap_;
  std::array<Lane, kMaxLanes> lanes_;
  std::size_t num_lanes_ = 0;
  std::size_t peek_source_ = kHeapSource;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;  ///< cancelled events still queued
  /// Slot of the event that is dispatching, kNotRunning between events.
  static constexpr std::uint32_t kNotRunning = ~std::uint32_t{0};
  std::uint32_t running_ = kNotRunning;
  bool rearmed_ = false;  ///< the running event has called Rearm
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace asf

#endif  // ASF_SIM_SCHEDULER_H_
