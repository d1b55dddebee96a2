#ifndef ASF_FILTER_FILTER_H_
#define ASF_FILTER_FILTER_H_

#include "common/types.h"
#include "filter/constraint.h"

/// \file
/// The client-side adaptive filter.
///
/// Paper §3.1: with last reported value V' and new value V, the constraint
/// [l, u] is violated iff (V' ∈ [l,u] ∧ V ∉ [l,u]) or (V' ∉ [l,u] ∧ V ∈
/// [l,u]) — i.e. the membership of the stream's value changed since the
/// last report. Only then is an update sent.
///
/// We track membership as a boolean reference state instead of storing V'
/// itself; the two are equivalent for the violation predicate, and the
/// boolean makes the reset-on-deploy semantics explicit: when the server
/// deploys a new constraint, the client re-evaluates membership of its
/// *current* value locally (no message), so the server's belief about which
/// side of the constraint each stream is on is exact at deploy time
/// (DESIGN.md §4, first bullet).

namespace asf {

/// Per-stream filter state held at the stream source.
class Filter {
 public:
  /// Constructs with no filter installed: every update is reported.
  Filter() = default;

  /// Rebuilds a filter from stored state: `constraint` installed with
  /// membership reference `reference_inside` (FilterArena::cell).
  Filter(const FilterConstraint& constraint, bool reference_inside)
      : constraint_(constraint), ref_inside_(reference_inside) {}

  /// Installs a constraint, resetting the membership reference to the
  /// stream's current value.
  void Deploy(const FilterConstraint& constraint, Value current_value) {
    constraint_ = constraint;
    ref_inside_ = constraint_.has_filter()
                      ? constraint_.interval().Contains(current_value)
                      : false;
  }

  /// Evaluates a new value against the constraint. Returns true when the
  /// update must be reported to the server; in that case the reference
  /// state is advanced (the report makes the new value the last-reported
  /// one).
  bool OnValueChange(Value new_value) {
    if (!constraint_.has_filter()) return true;  // paper §3.1: no filter
    const bool inside = constraint_.interval().Contains(new_value);
    if (inside == ref_inside_) return false;
    ref_inside_ = inside;
    return true;
  }

  /// Called when the server learns the current value through a probe (plain
  /// or regional): the probed value becomes the last-reported one.
  void SyncReference(Value current_value) {
    if (constraint_.has_filter()) {
      ref_inside_ = constraint_.interval().Contains(current_value);
    }
  }

  const FilterConstraint& constraint() const { return constraint_; }

  /// The membership reference state (last reported side of the
  /// constraint). Meaningful only when a filter is installed.
  bool reference_inside() const { return ref_inside_; }

 private:
  FilterConstraint constraint_;
  bool ref_inside_ = false;
};

}  // namespace asf

#endif  // ASF_FILTER_FILTER_H_
