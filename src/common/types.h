#ifndef ASF_COMMON_TYPES_H_
#define ASF_COMMON_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <limits>

/// \file
/// Fundamental scalar types shared by every module.
///
/// The paper models a system of n data streams S = {S_1 ... S_n}, each
/// reporting a real value V_i at discrete time instants (paper §3.1). We
/// follow that model: stream identities are small dense integers, values are
/// doubles, and simulated time is a double measured in abstract "time units"
/// (the paper's synthetic workload uses exponential inter-arrival with mean
/// 20 time units).

namespace asf {

/// Identifier of a stream source. Streams are registered densely from 0, so
/// a StreamId doubles as an index into per-stream arrays.
using StreamId = std::uint32_t;

/// Sentinel for "no stream".
inline constexpr StreamId kInvalidStream = static_cast<StreamId>(-1);

/// The most streams one run may hold, checked before anything is sized by
/// a stream count (RandomWalkConfig, TraceData, TcpSynthConfig and the
/// trace CSV header). A random walk keeps one pending scheduler event per
/// stream and the scheduler holds at most 2^24 (sim/scheduler.h), so the
/// cap leaves room for in-flight messages and timers; it also keeps every
/// `for (StreamId id = 0; id < n; ++id)` loop far from kInvalidStream.
inline constexpr std::size_t kMaxStreams = std::size_t{1} << 20;

/// A stream's reported scalar value (paper: V_i ∈ R).
using Value = double;

/// Simulated time in abstract time units.
using SimTime = double;

/// Positive infinity for values/time.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace asf

#endif  // ASF_COMMON_TYPES_H_
