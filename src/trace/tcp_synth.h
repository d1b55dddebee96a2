#ifndef ASF_TRACE_TCP_SYNTH_H_
#define ASF_TRACE_TCP_SYNTH_H_

#include <cstdint>

#include "common/result.h"
#include "common/status.h"
#include "stream/trace_source.h"

/// \file
/// Synthetic wide-area TCP trace generator.
///
/// The paper's first experiment set (§6.1) replays 30 days of LBL wide-area
/// TCP connection traces [15] — 606,497 connections grouped into 800
/// subnets by 16-bit IP prefix, using each connection's "number of bytes
/// sent" as the stream value. The Internet Traffic Archive is not available
/// offline, so we substitute a generator that preserves the two workload
/// properties the filter protocols actually exercise (DESIGN.md §3):
///
///  1. *Skewed per-subnet activity*: connection counts per subnet follow a
///     Zipf law (wide-area traffic is dominated by a few busy prefixes), so
///     some streams update constantly and most rarely.
///  2. *Heavy-tailed values with persistent heavy hitters*: bytes-per-
///     connection is lognormal — the classic model for wide-area TCP
///     connection sizes — with a per-subnet lognormal size factor on top.
///     The factor captures that real subnets have characteristic transfer
///     sizes (bulk-data subnets stay bulky), which is what makes a top-k
///     threshold meaningfully stable; without it every connection is an
///     independent draw and a rank-based bound churns on nearly every
///     update, which no real trace exhibits.
///
/// Connection arrival times are uniform over the trace duration per subnet
/// (order statistics of a Poisson process conditioned on its count), then
/// globally sorted.

namespace asf {

/// The most records a synthesized trace may hold: 2^27 (134M), 3.2 GB of
/// TraceRecord, over 200 times the paper's 606,497 connections.
/// TcpSynthConfig::Validate checks it, because GenerateTcpTrace reserves
/// the whole count before drawing a record.
inline constexpr std::uint64_t kMaxTraceRecords = std::uint64_t{1} << 27;

/// Parameters for the synthetic TCP trace.
struct TcpSynthConfig {
  /// Number of subnet streams (paper: 800, from 16-bit prefixes).
  std::size_t num_subnets = 800;
  /// Total connection records (paper's full dataset: 606,497 over 30
  /// days; experiments may use a smaller window — see EXPERIMENTS.md). At
  /// most kMaxTraceRecords.
  std::uint64_t total_connections = 100000;
  /// Trace duration in simulated time units.
  SimTime duration = 10000;
  /// Zipf skew across subnets (0 = uniform).
  double zipf_s = 1.0;
  /// Lognormal parameters of bytes-per-connection within one subnet:
  /// median exp(mu) × the subnet's size factor. The defaults put a
  /// sizeable fraction of values into the paper's range query [400, 600]
  /// while keeping a heavy upper tail.
  double bytes_log_mu = 6.2146;  ///< ln(500)
  double bytes_log_sigma = 0.45;
  /// Log-stddev of the per-subnet size factor (0 = identical subnets, no
  /// persistent heavy hitters). Most of the value variance lives ACROSS
  /// subnets: a subnet's consecutive connections are similar in size while
  /// subnets differ by orders of magnitude, which is what keeps top-k
  /// membership stable enough for rank-based filter bounds to pay off
  /// (paper Figure 9).
  double subnet_sigma = 1.4;
  std::uint64_t seed = 7;

  Status Validate() const;
};

/// Generates the trace. Every subnet's initial value is the byte count of
/// a synthetic "connection before the trace started", so range/rank queries
/// are meaningful from t = 0. Records are sorted by time. The trace is
/// checked once here (TraceData::Make), like every trace.
Result<TraceData> GenerateTcpTrace(const TcpSynthConfig& config);

}  // namespace asf

#endif  // ASF_TRACE_TCP_SYNTH_H_
