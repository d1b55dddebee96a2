#include "sim/scheduler.h"

#include <utility>

namespace asf {

std::uint32_t Scheduler::AcquireSlot() {
  if (free_.empty()) {
    const std::uint32_t base =
        static_cast<std::uint32_t>(chunks_.size()) * kChunkSize;
    ASF_CHECK_MSG(base + kChunkSize <= (1u << kSlotBits),
                  "too many pending events");
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    free_.reserve(free_.size() + kChunkSize);
    // Push in reverse so the LIFO free list hands out ascending indices.
    for (std::uint32_t i = kChunkSize; i > 0; --i) {
      free_.push_back(base + i - 1);
    }
  }
  const std::uint32_t index = free_.back();
  free_.pop_back();
  return index;
}

void Scheduler::ReleaseSlot(std::uint32_t index) {
  Slot& s = slot(index);
  s.fn = EventCallback();
  s.armed = false;
  free_.push_back(index);
  --live_;
}

void Scheduler::HeapGrow() {
  // aligned_alloc wants a size multiple of the alignment: capacities stay
  // multiples of 4 nodes (64 bytes), plus the 64-byte offset block.
  const std::size_t new_cap =
      heap_.capacity == 0 ? kChunkSize : heap_.capacity * 2;
  void* raw = std::aligned_alloc(64, new_cap * sizeof(HeapNode) + 64);
  ASF_CHECK(raw != nullptr);
  HeapNode* data =
      reinterpret_cast<HeapNode*>(static_cast<char*>(raw) + 48);
  if (heap_.size > 0) {
    __builtin_memcpy(data, heap_.data, heap_.size * sizeof(HeapNode));
  }
  std::free(heap_.raw);
  heap_.raw = raw;
  heap_.data = data;
  heap_.capacity = new_cap;
}

void Scheduler::HeapPush(HeapNode node) {
  if (heap_.size == heap_.capacity) HeapGrow();
  // Hole percolation: bubble the insertion hole up, then drop the node in;
  // one 16-byte move per level instead of a swap.
  std::size_t i = heap_.size++;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!Before(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void Scheduler::HeapPopRoot() {
  const HeapNode node = heap_[--heap_.size];
  const std::size_t n = heap_.size;
  if (n == 0) return;
  // Percolate the root hole down along the min-child path, then place the
  // former tail node.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], node)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

void Scheduler::Lane::Push(HeapNode node) {
  const std::size_t mask = ring.size() - 1;
  ASF_DCHECK(size == 0 || Before(ring[(head + size - 1) & mask], node));
  if (size == ring.size()) {
    std::vector<HeapNode> bigger(ring.empty() ? kChunkSize : 2 * ring.size());
    for (std::size_t i = 0; i < size; ++i) {
      bigger[i] = ring[(head + i) & mask];
    }
    ring.swap(bigger);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = node;
  ++size;
}

Scheduler::Lane* Scheduler::LaneFor(SimTime delay) {
  for (std::size_t i = 0; i < num_lanes_; ++i) {
    if (lanes_[i].delay == delay) return &lanes_[i];
  }
  if (num_lanes_ == kMaxLanes) return nullptr;
  lanes_[num_lanes_].delay = delay;
  return &lanes_[num_lanes_++];
}

std::uint64_t Scheduler::NextSeq() {
  ASF_CHECK_MSG(next_seq_ < (1ULL << (64 - kSlotBits)),
                "event sequence space exhausted");
  return next_seq_++;
}

std::uint32_t Scheduler::Arm(std::uint64_t seq, Callback fn) {
  ASF_CHECK(static_cast<bool>(fn));
  const std::uint32_t index = AcquireSlot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.seq = seq;
  s.armed = true;
  ++live_;
  return index;
}

EventId Scheduler::ScheduleAt(SimTime t, Callback fn) {
  ASF_CHECK_MSG(t >= now_, "cannot schedule into the past");
  const std::uint64_t seq = NextSeq();
  const std::uint32_t index = Arm(seq, std::move(fn));
  HeapPush(MakeNode(t, seq, index));
  return MakeId(seq, index);
}

EventId Scheduler::ScheduleAfter(SimTime delay, Callback fn) {
  ASF_CHECK(delay >= 0);
  Lane* lane = LaneFor(delay);
  if (lane == nullptr) return ScheduleAt(now_ + delay, std::move(fn));
  const std::uint64_t seq = NextSeq();
  const std::uint32_t index = Arm(seq, std::move(fn));
  lane->Push(MakeNode(now_ + delay, seq, index));
  return MakeId(seq, index);
}

EventId Scheduler::Rearm(SimTime t) {
  ASF_CHECK_MSG(running_ != kNotRunning, "Rearm outside a dispatch");
  ASF_CHECK_MSG(!rearmed_, "Rearm called twice in one dispatch");
  ASF_CHECK_MSG(t >= now_, "cannot schedule into the past");
  rearmed_ = true;
  const std::uint64_t seq = NextSeq();
  Slot& s = slot(running_);
  s.seq = seq;
  s.armed = true;
  ++live_;
  HeapPush(MakeNode(t, seq, running_));
  return MakeId(seq, running_);
}

bool Scheduler::Cancel(EventId id) {
  const std::uint32_t index = SlotIndex(id);
  if (index >= chunks_.size() * kChunkSize) return false;
  Slot& s = slot(index);
  if (!s.armed || s.seq != Seq(id)) return false;
  if (index == running_) {
    // The running event cancels its own re-arm. Its callable is still
    // executing, so only the arming is undone here; DispatchPeeked
    // releases the slot when the callable returns.
    s.armed = false;
    --live_;
  } else {
    ReleaseSlot(index);
  }
  ++tombstones_;  // the heap node stays behind until it surfaces
  return true;
}

const Scheduler::HeapNode* Scheduler::PeekLive() {
  for (;;) {
    const HeapNode* best = heap_.empty() ? nullptr : &heap_[0];
    std::size_t source = kHeapSource;
    for (std::size_t i = 0; i < num_lanes_; ++i) {
      const Lane& lane = lanes_[i];
      if (lane.size != 0 && (best == nullptr || Before(lane.front(), *best))) {
        best = &lane.front();
        source = i;
      }
    }
    if (best == nullptr) return nullptr;
    peek_source_ = source;
    // With no cancelled events in flight every queued node is live; skip
    // the slab validation entirely (the common case on the hot path).
    if (tombstones_ == 0) return best;
    const Slot& s = slot(SlotIndex(NodeId(*best)));
    if (s.armed && s.seq == Seq(NodeId(*best))) return best;
    PopPeeked();  // tombstone of a cancelled (possibly recycled) event
    --tombstones_;
  }
}

void Scheduler::PopPeeked() {
  if (peek_source_ == kHeapSource) {
    HeapPopRoot();
  } else {
    lanes_[peek_source_].Pop();
  }
}

void Scheduler::DispatchPeeked(const HeapNode* next) {
  const HeapNode node = *next;
  PopPeeked();
  ASF_DCHECK(node.time() >= now_);
  // Dispatch in place: the slot stays occupied (so a nested ScheduleAt
  // cannot reuse it) but is disarmed first, so the running event's own id
  // is already stale — Cancel from inside the callback is a no-op,
  // matching the "already ran" contract. Rearm arms the slot again under
  // a fresh sequence number; an armed slot is kept, callable and all,
  // when the callback returns. Chunked slab storage never moves, so
  // growth during the callback is safe too.
  ASF_DCHECK(running_ == kNotRunning);
  const std::uint32_t index = SlotIndex(NodeId(node));
  Slot& s = slot(index);
  s.armed = false;
  --live_;
  now_ = node.time();
  ++dispatched_;
  running_ = index;
  rearmed_ = false;
  s.fn();
  running_ = kNotRunning;
  if (!s.armed) {
    s.fn = EventCallback();
    free_.push_back(index);
  }
}

std::size_t Scheduler::RunTo(SimTime t, bool inclusive) {
  ASF_CHECK(t >= now_);
  std::size_t n = 0;
  while (const HeapNode* next = PeekLive()) {
    if (inclusive ? next->time() > t : next->time() >= t) break;
    DispatchPeeked(next);
    ++n;
  }
  now_ = t;
  return n;
}

std::size_t Scheduler::RunUntil(SimTime t) { return RunTo(t, true); }

std::size_t Scheduler::RunBefore(SimTime t) { return RunTo(t, false); }

}  // namespace asf
