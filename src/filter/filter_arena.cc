#include "filter/filter_arena.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/simd.h"
#include "filter/interval_index.h"

namespace asf {

namespace {
constexpr double kSentinelLower = std::numeric_limits<double>::infinity();
constexpr double kSentinelUpper = -std::numeric_limits<double>::infinity();
}  // namespace

FilterArena::FilterArena(std::size_t num_streams)
    : num_streams_(num_streams),
      known_values_(num_streams,
                    std::numeric_limits<double>::quiet_NaN()) {
  simd::AssertHostSupportsKernel();
}

FilterArena::~FilterArena() = default;

Filter FilterArena::cell(StreamId id, std::size_t column) const {
  ASF_DCHECK(id < num_streams_ && column < live_);
  const bool ref = Bit(ref_bits_, id, column);
  if (Bit(always_bits_, id, column)) {
    return Filter(FilterConstraint::NoFilter(), ref);
  }
  // Sentinel bounds (lower > upper) are the empty interval's encoding;
  // every other pair is the deployed interval verbatim.
  const std::size_t lane = id * stride_ + column;
  const double lo = lower_[lane];
  const double hi = upper_[lane];
  return Filter(
      FilterConstraint::Range(lo > hi ? Interval::Never() : Interval(lo, hi)),
      ref);
}

void FilterArena::Widen() {
  const std::size_t old_stride = stride_;
  const std::size_t old_words = words_;
  stride_ = PaddedStride(capacity_);
  words_ = stride_ / 64;
  // Live columns keep their indices; only the row stride changes, so each
  // strip is copied row by row into the wider layout.
  const auto widen = [&](auto& rows, std::size_t old_row,
                         std::size_t new_row, auto fill) {
    std::remove_reference_t<decltype(rows)> grown(num_streams_ * new_row,
                                                  fill);
    for (std::size_t s = 0; s < num_streams_ && old_row != 0; ++s) {
      std::copy_n(rows.begin() + s * old_row, old_row,
                  grown.begin() + s * new_row);
    }
    rows = std::move(grown);
  };
  widen(lower_, old_stride, stride_, kSentinelLower);
  widen(upper_, old_stride, stride_, kSentinelUpper);
  widen(ref_bits_, old_words, words_, std::uint64_t{0});
  widen(always_bits_, old_words, words_, std::uint64_t{0});
  fired_.assign(words_, 0);
}

std::size_t FilterArena::Acquire() {
  if (live_ == capacity_) {
    capacity_ = capacity_ == 0 ? 1 : capacity_ * 2;  // grow by doubling
    if (PaddedStride(capacity_) != stride_) Widen();  // 64-column steps
  }
  const std::size_t column = live_++;
  // The new column comes up with no filter installed. Its lanes are
  // already sentinel (vacated by Release, or fresh from growth); only
  // the always bit and a cleared reference are written.
  const std::size_t w = column / 64;
  const std::uint64_t mask = std::uint64_t{1} << (column % 64);
  for (std::size_t s = 0; s < num_streams_; ++s) {
    always_bits_[s * words_ + w] |= mask;
    ref_bits_[s * words_ + w] &= ~mask;
  }
  // A re-acquired column may shadow stale snapshot entries in the index.
  if (index_) index_->OnAcquire(column);
  return column;
}

std::size_t FilterArena::Release(std::size_t column) {
  ASF_CHECK(column < live_);
  const std::size_t last = live_ - 1;
  const bool move = column != last;
  // One walk down the strips: the last tenant moves into the hole (keeping
  // the live prefix dense) and its vacated column turns sentinel, so it
  // never fires until re-acquired.
  const std::size_t hole_w = column / 64;
  const std::size_t last_w = last / 64;
  const std::uint64_t hole_mask = std::uint64_t{1} << (column % 64);
  const std::uint64_t last_mask = std::uint64_t{1} << (last % 64);
  const auto move_bit = [&](std::uint64_t* row) {
    if (move) {
      row[hole_w] = (row[last_w] & last_mask) != 0 ? row[hole_w] | hole_mask
                                                   : row[hole_w] & ~hole_mask;
    }
    row[last_w] &= ~last_mask;
  };
  for (std::size_t s = 0; s < num_streams_; ++s) {
    double* lower = lower_.data() + s * stride_;
    double* upper = upper_.data() + s * stride_;
    lower[column] = lower[last];
    upper[column] = upper[last];
    lower[last] = kSentinelLower;
    upper[last] = kSentinelUpper;
    move_bit(ref_bits_.data() + s * words_);
    move_bit(always_bits_.data() + s * words_);
  }
  if (move && index_) index_->OnRelease(column, last);
  --live_;
  return last;
}

void FilterArena::Deploy(StreamId id, std::size_t column,
                         const FilterConstraint& constraint,
                         Value current_value) {
  ASF_DCHECK(id < num_streams_ && column < live_);
  const std::size_t lane = id * stride_ + column;
  const bool filtered = constraint.has_filter();
  const Interval& interval = constraint.interval();
  if (filtered && !interval.empty()) {
    // [-inf, inf] vectorizes for free: it contains every finite value,
    // exactly Interval::Contains for the finite values the kernel takes.
    lower_[lane] = interval.lo();
    upper_[lane] = interval.hi();
  } else {
    // No filter installed (every update reports; the always bit fires it
    // and the kernel's blend leaves the reference alone, as OnValueChange
    // does) or the empty interval (never inside): sentinel bounds.
    lower_[lane] = kSentinelLower;
    upper_[lane] = kSentinelUpper;
  }
  SetBit(always_bits_, id, column, !filtered);
  SetBit(ref_bits_, id, column, filtered && LaneContains(lane, current_value));
  if (index_) index_->OnDeploy(id, column);
}

void FilterArena::SyncReference(StreamId id, std::size_t column,
                                Value current_value) {
  ASF_DCHECK(id < num_streams_ && column < live_);
  if (!Bit(always_bits_, id, column)) {
    SetBit(ref_bits_, id, column,
           LaneContains(id * stride_ + column, current_value));
  }
  // No index dirty-mark: a reference sync changes no bounds, and the
  // engine only syncs at dispatch-coherent values (DESIGN.md §10).
}

const std::uint64_t* FilterArena::EvaluateUpdate(StreamId id, Value v) {
  ASF_DCHECK(id < num_streams_ && live_ > 0);
  ASF_DCHECK(std::isfinite(v));
  const double* lower = lower_.data() + id * stride_;
  const double* upper = upper_.data() + id * stride_;
  std::uint64_t* ref = ref_bits_.data() + id * words_;
  const std::uint64_t* always = always_bits_.data() + id * words_;
  // A filtered column fires on a membership flip; a no-filter column
  // fires always (sentinel lanes have inside == ref == always == 0 and
  // stay silent). The advanced reference is the new membership for
  // filtered columns and is preserved for no-filter columns, exactly
  // OnValueChange's contract — three word ops for 64 columns, with no
  // per-column work regardless of how many fire.
  const auto advance = [&](std::size_t w, std::uint64_t inside) {
    fired_[w] = (inside ^ ref[w]) | always[w];
    ref[w] = (inside & ~always[w]) | (ref[w] & always[w]);
  };
  // Full words sweep a constant 64 lanes, which the compiler unrolls.
  const std::size_t full = live_ / 64;
  for (std::size_t w = 0; w < full; ++w) {
    advance(w, simd::InsideMask(v, lower + w * 64, upper + w * 64, 64));
  }
  // The last, partial word sweeps only its live lanes (rounded up to the
  // vector width). The lanes past live() are sentinel with clear bits, so
  // the words come out as a full sweep's would.
  if (const std::size_t tail = live_ % 64; tail != 0) {
    advance(full, simd::InsideMask(v, lower + full * 64, upper + full * 64,
                                   static_cast<int>(tail)));
  }
  return fired_.data();
}

bool FilterArena::EvaluateColumn(StreamId id, std::size_t column, Value v) {
  ASF_DCHECK(id < num_streams_ && column < live_);
  if (Bit(always_bits_, id, column)) return true;  // no filter installed
  const bool inside = LaneContains(id * stride_ + column, v);
  if (inside == Bit(ref_bits_, id, column)) return false;
  SetBit(ref_bits_, id, column, inside);
  return true;
}

void FilterArena::SetDispatchPolicy(DispatchPolicy policy,
                                    std::size_t auto_crossover) {
  policy_ = policy;
  auto_crossover_ = auto_crossover;
}

void FilterArena::DispatchUpdate(StreamId id, Value v,
                                 std::vector<std::uint32_t>* fired) {
  ASF_DCHECK(id < num_streams_ && live_ > 0);
  ASF_DCHECK(std::isfinite(v));
  fired->clear();
  const bool use_index =
      policy_ == DispatchPolicy::kIndex ||
      (policy_ == DispatchPolicy::kAuto && live_ >= auto_crossover_);
  if (use_index) {
    // Created on first use so pure-scan runs never pay for the hooks;
    // once alive, every mutation keeps it coherent, so policies can
    // switch per dispatch (kAuto does, around the crossover).
    if (!index_) index_ = std::make_unique<IntervalIndex>(this);
    index_->Dispatch(id, known_values_[id], v, fired);
    ++stats_.index_dispatches;
  } else {
    const std::uint64_t* words = EvaluateUpdate(id, v);
    const std::size_t nwords = fired_words();
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t word = words[w];
      while (word != 0) {
        fired->push_back(static_cast<std::uint32_t>(
            w * 64 + static_cast<unsigned>(__builtin_ctzll(word))));
        word &= word - 1;
      }
    }
    ++stats_.scan_dispatches;
  }
  known_values_[id] = v;
}

DispatchStats FilterArena::dispatch_stats() const {
  DispatchStats stats = stats_;
  if (index_) {
    stats.index_rebuilds = index_->rebuilds();
    stats.max_stream_rebuilds = index_->max_stream_rebuilds();
  }
  return stats;
}

}  // namespace asf
