#ifndef ASF_OBS_TRACE_H_
#define ASF_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

/// \file
/// Sim-time event tracer (DESIGN.md §14): lock-free ring buffers of
/// fixed-size POD records, flushed once to a binary file at
/// the end of a run and converted offline to Chrome trace_event JSON by
/// tools/asf_trace.
///
/// The tracer is *inert by construction*: records carry sim-time and ids
/// that the engine already computed — emitting one never reads the RNG,
/// never schedules an event, and never blocks (a full ring drops the
/// record and counts the drop). With tracing compiled out
/// (-DASF_OBS_TRACE=OFF) the emit macro expands to nothing; compiled in
/// but runtime-disabled it is one null-pointer branch on the hot path.
///
/// Threading contract: rings are partitioned, not shared. Ring r is
/// written by exactly one thread at a time; the engine writes ring 0
/// only. The file format keeps the ring count and each record's ring so
/// multi-ring dumps from earlier versions still read. EnsureRings and
/// WriteBinary are setup/teardown-time calls on the owning thread.

namespace asf {
namespace obs {

/// Every traced event kind. Order is the wire format — append only.
enum class TraceEventType : std::uint16_t {
  kValueUpdate = 0,  ///< a stream update dispatched; value = new value
  kCrossing,         ///< a filter crossing fired; id = column, aux = count
  kWireSend,         ///< source->server send; aux = payload count
  kWireDeliver,      ///< server-side delivery; aux = payload count
  kWireDrop,         ///< message lost (partition/loss/retired slot)
  kDeploy,           ///< query slot installed; id = slot
  kRetire,           ///< query slot retired; id = slot
  kEpochBarrier,     ///< epoch boundary, in dumps from earlier versions
  kIndexRebuild,     ///< interval-index rebuild; aux = rebuild count
  kSpillEvict,       ///< query state spilled out; id = slot, aux = bytes
  kSpillFault,       ///< query state faulted back; id = slot, aux = bytes
  kNumTypes,
};

/// Runtime category mask bits; CategoryOf maps each event type to one.
inline constexpr std::uint32_t kCatUpdate = 1u << 0;
inline constexpr std::uint32_t kCatCrossing = 1u << 1;
inline constexpr std::uint32_t kCatWire = 1u << 2;
inline constexpr std::uint32_t kCatLifecycle = 1u << 3;
inline constexpr std::uint32_t kCatEpoch = 1u << 4;
inline constexpr std::uint32_t kCatIndex = 1u << 5;
inline constexpr std::uint32_t kCatSpill = 1u << 6;
inline constexpr std::uint32_t kCatAll = 0x7f;

constexpr std::uint32_t CategoryOf(TraceEventType type) {
  switch (type) {
    case TraceEventType::kValueUpdate:
      return kCatUpdate;
    case TraceEventType::kCrossing:
      return kCatCrossing;
    case TraceEventType::kWireSend:
    case TraceEventType::kWireDeliver:
    case TraceEventType::kWireDrop:
      return kCatWire;
    case TraceEventType::kDeploy:
    case TraceEventType::kRetire:
      return kCatLifecycle;
    case TraceEventType::kEpochBarrier:
      return kCatEpoch;
    case TraceEventType::kIndexRebuild:
      return kCatIndex;
    case TraceEventType::kSpillEvict:
    case TraceEventType::kSpillFault:
      return kCatSpill;
    case TraceEventType::kNumTypes:
      break;
  }
  return 0;
}

/// Human-readable names, used by the Chrome exporter and --summary.
const char* TraceEventTypeName(TraceEventType type);
const char* TraceCategoryName(std::uint32_t category_bit);

/// Parses "update,wire,spill"-style CSVs into a category mask. "all" (or
/// an empty string) selects every category. Unknown names are an error.
Result<std::uint32_t> ParseCategoryMask(const std::string& csv);

/// One traced event. 32 bytes, trivially copyable — the binary file is
/// these structs verbatim (little-endian, host layout; the converter
/// runs on the same host class).
struct TraceRecord {
  double time = 0;         ///< sim-time of the event
  std::uint16_t type = 0;  ///< TraceEventType
  std::uint16_t ring = 0;  ///< originating ring index
  std::uint32_t id = 0;    ///< stream / column / slot id (type-dependent)
  std::uint64_t aux = 0;   ///< type-dependent extra (count, bytes)
  double value = 0;        ///< type-dependent value (stream value, etc.)
};
static_assert(sizeof(TraceRecord) == 32, "trace record layout is the ABI");
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "records are written to disk verbatim");

/// A single-writer bounded record buffer. Push never blocks: when the
/// ring is full the record is dropped and counted (the overflow policy
/// the inertness contract requires — a tracer that could stall the
/// engine would perturb wall-clock-sensitive accounting).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {
    records_.reserve(capacity);
  }

  void Push(const TraceRecord& record) {
    if (records_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    records_.push_back(record);
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<TraceRecord> records_;
};

/// The per-run tracer: owns the rings, the category mask, and the binary
/// flush. The engine receives a `Tracer*` through ObsHooks (null = off).
class Tracer {
 public:
  explicit Tracer(std::uint32_t category_mask = kCatAll,
                  std::size_t ring_capacity = 1u << 16)
      : mask_(category_mask), ring_capacity_(ring_capacity) {}

  /// Grows the ring set to at least `n` rings. Setup-time only (the
  /// engine calls it once before Run); not thread-safe.
  void EnsureRings(std::size_t n) {
    while (rings_.size() < n) {
      rings_.push_back(std::make_unique<TraceRing>(ring_capacity_));
    }
  }

  /// The hot-path gate: one load + mask test.
  bool Wants(std::uint32_t category) const { return (mask_ & category) != 0; }
  std::uint32_t mask() const { return mask_; }

  /// Appends a record to ring `ring`. The caller must be the ring's
  /// (sole) writer thread and must have called EnsureRings first.
  void Emit(std::uint16_t ring, TraceEventType type, SimTime time,
            std::uint32_t id, double value = 0, std::uint64_t aux = 0) {
    TraceRecord record;
    record.time = time;
    record.type = static_cast<std::uint16_t>(type);
    record.ring = ring;
    record.id = id;
    record.aux = aux;
    record.value = value;
    rings_[ring]->Push(record);
  }

  std::size_t ring_count() const { return rings_.size(); }
  const TraceRing& ring(std::size_t i) const { return *rings_[i]; }

  /// Total records captured / dropped across all rings.
  std::uint64_t total_records() const;
  std::uint64_t total_dropped() const;

  /// Writes the binary trace file (format: trace_convert.h).
  Status WriteBinary(const std::string& path) const;

 private:
  std::uint32_t mask_;
  std::size_t ring_capacity_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

}  // namespace obs
}  // namespace asf

// Compile-time gate. ASF_OBS_TRACE is defined (=1) by the build system
// by default; -DASF_OBS_TRACE=OFF at configure time removes every trace
// point from the binary entirely.
#if defined(ASF_OBS_TRACE)
#define ASF_OBS_TRACE_COMPILED 1
/// The engine-side emit point: null tracer or masked-out category is a
/// single branch; `ring`/`time`/`id`/... evaluate only when live.
#define ASF_TRACE_EVENT(tracer, ring_index, event_type, time, id, value, aux) \
  do {                                                                        \
    ::asf::obs::Tracer* asf_trace_t_ = (tracer);                              \
    if (asf_trace_t_ != nullptr &&                                            \
        asf_trace_t_->Wants(::asf::obs::CategoryOf(event_type))) {            \
      asf_trace_t_->Emit((ring_index), (event_type), (time), (id), (value),   \
                         (aux));                                              \
    }                                                                         \
  } while (0)
#else
#define ASF_OBS_TRACE_COMPILED 0
#define ASF_TRACE_EVENT(tracer, ring_index, event_type, time, id, value, aux) \
  do {                                                                        \
  } while (0)
#endif

#endif  // ASF_OBS_TRACE_H_
