#include "filter/interval_index.h"

#include <algorithm>
#include <cmath>

#include "filter/filter_arena.h"
#include "obs/profiler.h"

namespace asf {

namespace {
/// Rebuild-trigger slack: tiny strips may carry a few dirty columns
/// indefinitely without a rebuild ever paying off (the scalar overlay on
/// a handful of columns is cheaper than re-sorting the strip).
constexpr std::uint64_t kRebuildSlack = 32;
}  // namespace

IntervalIndex::IntervalIndex(FilterArena* arena)
    : arena_(arena), streams_(arena->num_streams()) {}

void IntervalIndex::MarkDirty(StreamState& state, std::size_t column) {
  // An invalid snapshot answers nothing, so there is nothing to overlay;
  // the first dispatch rebuilds from scratch anyway.
  if (!state.valid) return;
  const std::size_t w = column / 64;
  if (state.dirty_bits.size() <= w) {
    state.dirty_bits.resize(arena_->words_, 0);
  }
  const std::uint64_t mask = std::uint64_t{1} << (column % 64);
  if ((state.dirty_bits[w] & mask) != 0) return;
  state.dirty_bits[w] |= mask;
  state.dirty_cols.push_back(static_cast<std::uint32_t>(column));
}

void IntervalIndex::OnDeploy(StreamId id, std::size_t column) {
  MarkDirty(streams_[id], column);
}

void IntervalIndex::OnAcquire(std::size_t column) {
  for (StreamState& state : streams_) MarkDirty(state, column);
}

void IntervalIndex::OnRelease(std::size_t hole, std::size_t vacated_last) {
  // The tenant formerly at vacated_last now answers at `hole`; its
  // snapshot entries (keyed by the old position) go stale on both ends —
  // entries at `hole` describe the retired tenant, entries at
  // vacated_last fall outside live() and are skipped structurally.
  (void)vacated_last;
  for (StreamState& state : streams_) MarkDirty(state, hole);
}

void IntervalIndex::SeatFinger(StreamState& state, Value v) {
  state.finger = v;
  state.lower_pos = static_cast<std::size_t>(
      std::upper_bound(state.lower_bounds.begin(), state.lower_bounds.end(),
                       v) -
      state.lower_bounds.begin());
  state.upper_pos = static_cast<std::size_t>(
      std::lower_bound(state.upper_bounds.begin(), state.upper_bounds.end(),
                       v) -
      state.upper_bounds.begin());
}

void IntervalIndex::RebuildAndDispatch(StreamId id, StreamState& state,
                                       Value v,
                                       std::vector<std::uint32_t>* fired) {
  obs::ScopedPhase obs_phase(arena_->profiler_, obs::Phase::kIndexRebuild);
  // The rebuild's full sweep doubles as this dispatch: one SIMD kernel
  // pass answers the update and leaves every reference advanced, so the
  // snapshot taken right after is coherent with the stream's new value.
  const std::uint64_t* words = arena_->EvaluateUpdate(id, v);
  const std::size_t nwords = arena_->fired_words();
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      fired->push_back(static_cast<std::uint32_t>(
          w * 64 + static_cast<unsigned>(__builtin_ctzll(word))));
      word &= word - 1;
    }
  }

  const std::size_t live = arena_->live_;
  const double* lower = arena_->lower_.data() + id * arena_->stride_;
  const double* upper = arena_->upper_.data() + id * arena_->stride_;
  const std::uint64_t* always = arena_->always_bits_.data() + id * arena_->words_;
  state.always_cols.clear();
  sort_scratch_.clear();
  for (std::size_t c = 0; c < live; ++c) {
    if ((always[c / 64] >> (c % 64)) & 1u) {
      state.always_cols.push_back(static_cast<std::uint32_t>(c));
    } else {
      sort_scratch_.push_back({lower[c], static_cast<std::uint32_t>(c)});
    }
  }
  // (bound, column) pairs: the column tie-break pins a deterministic
  // order under equal bounds (the toggle set is order-independent, but
  // determinism keeps rebuild schedules reproducible bit for bit).
  std::sort(sort_scratch_.begin(), sort_scratch_.end());
  state.lower_bounds.clear();
  state.lower_cols.clear();
  for (const auto& [bound, col] : sort_scratch_) {
    state.lower_bounds.push_back(bound);
    state.lower_cols.push_back(col);
  }
  sort_scratch_.clear();
  for (const std::uint32_t col : state.lower_cols) {
    sort_scratch_.push_back({upper[col], col});
  }
  std::sort(sort_scratch_.begin(), sort_scratch_.end());
  state.upper_bounds.clear();
  state.upper_cols.clear();
  for (const auto& [bound, col] : sort_scratch_) {
    state.upper_bounds.push_back(bound);
    state.upper_cols.push_back(col);
  }
  SeatFinger(state, v);

  state.dirty_bits.assign(arena_->words_, 0);
  state.dirty_cols.clear();
  state.pending = 0;
  state.valid = true;
  ++state.rebuilds;
  ++total_rebuilds_;
  if (state.rebuilds > max_stream_rebuilds_) {
    max_stream_rebuilds_ = state.rebuilds;
  }
}

void IntervalIndex::Dispatch(StreamId id, Value prev, Value v,
                             std::vector<std::uint32_t>* fired) {
  StreamState& state = streams_[id];
  const std::size_t live = arena_->live_;
  // Rebuild when there is no usable snapshot (first dispatch, or no
  // dispatched value to diff against) or when the dirty overlay's
  // accumulated per-dispatch cost has exceeded one rebuild (≈ live
  // columns) — the lazy/buffered policy that keeps tightening-heavy
  // protocols off the rebuild treadmill.
  if (!state.valid || std::isnan(prev) ||
      state.pending > live + kRebuildSlack) {
    RebuildAndDispatch(id, state, v, fired);
    return;
  }
  state.pending += state.dirty_cols.size();

  if (state.finger != prev) SeatFinger(state, prev);
  const std::size_t words = arena_->words_;
  if (toggle_words_.size() < words) {
    toggle_words_.resize(words, 0);
    word_stamp_.resize(words, 0);
  }
  ++stamp_;
  touched_words_.clear();

  // Toggle the membership of one snapshot column — unless its snapshot
  // entry is stale (dirty overlay or beyond the live prefix). A column
  // hit by both endpoint ranges toggles twice and nets out: the step
  // jumped clean over its interval.
  const auto toggle = [&](std::uint32_t col) {
    const std::size_t w = col / 64;
    if (col >= live ||
        (w < state.dirty_bits.size() &&
         ((state.dirty_bits[w] >> (col % 64)) & 1u) != 0)) {
      return;
    }
    if (word_stamp_[w] != stamp_) {
      word_stamp_[w] = stamp_;
      toggle_words_[w] = 0;
      touched_words_.push_back(static_cast<std::uint32_t>(w));
    }
    toggle_words_[w] ^= std::uint64_t{1} << (col % 64);
  };

  // Membership flips iff (lower ∈ (a, b]) XOR (upper ∈ [a, b)) with
  // a = min(prev, v), b = max(prev, v) — see the header derivation; the
  // half-open forms reproduce Interval::Contains' closed-interval ties in
  // both travel directions. The finger sits at prev, so each range is the
  // run of entries between it and v's position: walk there, toggling.
  const std::vector<double>& lower = state.lower_bounds;
  const std::vector<double>& upper = state.upper_bounds;
  std::size_t lo = state.lower_pos;
  std::size_t up = state.upper_pos;
  if (v > prev) {
    for (; lo < lower.size() && lower[lo] <= v; ++lo) {
      toggle(state.lower_cols[lo]);
    }
    for (; up < upper.size() && upper[up] < v; ++up) {
      toggle(state.upper_cols[up]);
    }
  } else {
    for (; lo > 0 && lower[lo - 1] > v; --lo) {
      toggle(state.lower_cols[lo - 1]);
    }
    for (; up > 0 && upper[up - 1] >= v; --up) {
      toggle(state.upper_cols[up - 1]);
    }
  }
  state.finger = v;
  state.lower_pos = lo;
  state.upper_pos = up;

  // Clean toggled columns fire, and their advanced reference is one XOR:
  // ref == inside(prev) for clean columns, so ref ^ toggle == inside(v) —
  // exactly the kernel's blend for filtered columns.
  std::uint64_t* ref = arena_->ref_bits_.data() + id * words;
  for (const std::uint32_t w : touched_words_) {
    std::uint64_t word = toggle_words_[w];
    if (word == 0) continue;
    ref[w] ^= word;
    while (word != 0) {
      fired->push_back(static_cast<std::uint32_t>(
          w * 64 + static_cast<unsigned>(__builtin_ctzll(word))));
      word &= word - 1;
    }
  }
  // Clean no-filter columns report every update, reference untouched —
  // the kernel's `| always` term.
  for (const std::uint32_t col : state.always_cols) {
    const std::size_t w = col / 64;
    if (col >= live ||
        (w < state.dirty_bits.size() &&
         ((state.dirty_bits[w] >> (col % 64)) & 1u) != 0)) {
      continue;
    }
    fired->push_back(col);
  }
  // The dirty overlay: evaluate scalar against the current cells,
  // which advances their references exactly like the kernel.
  for (const std::uint32_t col : state.dirty_cols) {
    if (col >= live) continue;
    if (arena_->EvaluateColumn(id, col, v)) fired->push_back(col);
  }
  // The three sources are disjoint (dirty columns are excluded from both
  // snapshot paths; a snapshot column is filtered xor no-filter), so
  // ascending order — the kernel's bit order — is just one sort.
  std::sort(fired->begin(), fired->end());
}

}  // namespace asf
