#ifndef ASF_ENGINE_SPILL_H_
#define ASF_ENGINE_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_slot.h"
#include "engine/sim_core.h"
#include "engine/spill_config.h"
#include "storage/record_store.h"

/// \file
/// Out-of-core retired-query state (DESIGN.md §13). When a query retires
/// its books are closed — the window record and final QueryRunStats
/// (including the answer-size and update-delay accumulators, the run's
/// per-query trace) never change again. With spilling enabled the engine
/// serializes that cold record to pages, drops the in-memory copies, and
/// faults the record back through the buffer pool only when someone asks
/// (result flattening, the churn table). The FilterArena and every live
/// slot stay 100% hot: only closed books ever touch disk, which is the
/// whole determinism argument — a spilled run and an in-memory run
/// execute the exact same events and differ only in where finished
/// numbers are parked. Internal to src/engine.

namespace asf {
namespace engine_internal {

/// Bit-exact QueryRunStats codec: one walk of the record's field list
/// (engine/record_fields.h), raw IEEE doubles via storage::serde.
/// Decode(Encode(s)) compares equal field-for-field, which is what keeps
/// spilled output byte-identical to in-memory output.
std::vector<std::uint8_t> EncodeQueryRecord(const QueryRunStats& stats);
QueryRunStats DecodeQueryRecord(const std::vector<std::uint8_t>& bytes);

/// One engine's spill endpoint: a scratch PageStore (unique file under
/// config.dir, removed on destruction), the BufferPool over it, and the
/// record-chain codec. Created only when SpillConfig::enabled(); the
/// config must already be validated — construction CHECKs.
class QueryStateSpiller {
 public:
  /// The scratch file name carries the pid and a process-wide counter, so
  /// concurrent runs can share one dir.
  static std::unique_ptr<QueryStateSpiller> Create(const SpillConfig& config);

  /// Removes the scratch page file.
  ~QueryStateSpiller();

  QueryStateSpiller(const QueryStateSpiller&) = delete;
  QueryStateSpiller& operator=(const QueryStateSpiller&) = delete;

  /// Serializes `stats` to a fresh page chain. I/O failures CHECK — the
  /// scratch file was validated writable at construction.
  storage::RecordRef Spill(const QueryRunStats& stats);

  /// Faults a spilled record back through the pool.
  QueryRunStats Fault(const storage::RecordRef& ref);

  /// Run-level telemetry snapshot (record counts + pool + store).
  SpillTelemetry Telemetry() const;

  storage::BufferPool& pool() { return *pool_; }

  /// Observability attachment (DESIGN.md §14): spill/fault trace events
  /// stamped with `clock->now()`, and kSpillIo profiler scopes around the
  /// page I/O. All-null (the default) = off. The clock is read-only —
  /// tracing never schedules anything.
  void set_obs(obs::Tracer* tracer, obs::Profiler* profiler,
               const Scheduler* clock) {
    obs_tracer_ = tracer;
    obs_profiler_ = profiler;
    obs_clock_ = clock;
  }

 private:
  QueryStateSpiller(const SpillConfig& config,
                    std::unique_ptr<storage::PageStore> store);

  SpillConfig config_;
  std::unique_ptr<storage::PageStore> store_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::PagedRecordStore> records_;
  std::uint64_t records_spilled_ = 0;
  std::uint64_t records_faulted_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  std::uint64_t faulted_bytes_ = 0;

  obs::Tracer* obs_tracer_ = nullptr;
  obs::Profiler* obs_profiler_ = nullptr;
  const Scheduler* obs_clock_ = nullptr;
};

/// Spills a retired slot's closed stats record to pages and drops the
/// in-memory copy. The books must already be closed (slot.live == false,
/// stats final); RetireSlot has already freed the slot's runtime.
void SpillRetiredSlot(QueryStateSpiller& spiller, QuerySlot& slot);

/// Makes slot.stats authoritative again, faulting the spilled record
/// back if the hot copy was dropped. No-op for never-spilled slots.
void EnsureStatsResident(QueryStateSpiller* spiller, QuerySlot& slot);

}  // namespace engine_internal
}  // namespace asf

#endif  // ASF_ENGINE_SPILL_H_
