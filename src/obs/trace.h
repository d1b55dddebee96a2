#ifndef ASF_OBS_TRACE_H_
#define ASF_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

/// \file
/// Sim-time event tracer (DESIGN.md §14): one bounded buffer of
/// fixed-size POD records, written once at the end of a run as a Chrome
/// trace_event JSON document that chrome://tracing and Perfetto load.
///
/// The tracer is *inert by construction*: records carry sim-time and ids
/// that the engine already computed — emitting one never reads the RNG,
/// never schedules an event, and never blocks (a full buffer drops the
/// record and counts the drop). With tracing compiled out
/// (-DASF_OBS_TRACE=OFF) the emit macro expands to nothing; compiled in
/// but runtime-disabled it is one null-pointer branch on the hot path.
/// Not thread-safe: the engine that writes it is one thread.

namespace asf {
namespace obs {

/// Every traced event kind.
enum class TraceEventType : std::uint16_t {
  kValueUpdate = 0,  ///< a stream update dispatched; value = new value
  kCrossing,         ///< a filter crossing fired; id = column, aux = count
  kWireSend,         ///< source->server send; aux = payload count
  kWireDeliver,      ///< server-side delivery; aux = payload count
  kWireDrop,         ///< message lost (partition/loss/retired slot)
  kDeploy,           ///< query slot installed; id = slot
  kRetire,           ///< query slot retired; id = slot
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
inline constexpr std::uint32_t kCatIndex = 1u << 4;
inline constexpr std::uint32_t kCatSpill = 1u << 5;
inline constexpr std::uint32_t kCatAll = 0x3f;

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

/// Human-readable names: each Chrome event's "name" and "cat".
const char* TraceEventTypeName(TraceEventType type);
const char* TraceCategoryName(std::uint32_t category_bit);

/// Parses "update,wire,spill"-style CSVs into a category mask. "all" (or
/// an empty string) selects every category. Unknown names are an error.
Result<std::uint32_t> ParseCategoryMask(const std::string& csv);

/// One traced event, held in memory until the run's trace is written.
struct TraceRecord {
  double time = 0;         ///< sim-time of the event
  std::uint16_t type = 0;  ///< TraceEventType
  std::uint32_t id = 0;    ///< stream / column / slot id (type-dependent)
  std::uint64_t aux = 0;   ///< type-dependent extra (count, bytes)
  double value = 0;        ///< type-dependent value (stream value, etc.)
};

/// The per-run tracer: the category mask, the bounded record buffer and
/// the Chrome JSON writer. The engine receives a `Tracer*` through
/// ObsHooks (null = off). Emit never blocks: once `capacity` records are held,
/// further records are dropped and counted (the overflow policy the
/// inertness contract requires — a tracer that could stall the engine
/// would perturb wall-clock-sensitive accounting).
class Tracer {
 public:
  explicit Tracer(std::uint32_t category_mask = kCatAll,
                  std::size_t capacity = 1u << 16)
      : mask_(category_mask), capacity_(capacity) {
    records_.reserve(capacity);
  }

  /// The hot-path gate: one load + mask test.
  bool Wants(std::uint32_t category) const { return (mask_ & category) != 0; }

  void Emit(TraceEventType type, SimTime time, std::uint32_t id,
            double value = 0, std::uint64_t aux = 0) {
    if (records_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    TraceRecord record;
    record.time = time;
    record.type = static_cast<std::uint16_t>(type);
    record.id = id;
    record.aux = aux;
    record.value = value;
    records_.push_back(record);
  }

  /// The records captured, in emission (sim-time) order.
  const std::vector<TraceRecord>& records() const { return records_; }
  /// Records dropped because the buffer was full.
  std::uint64_t dropped() const { return dropped_; }

  /// Writes the records as a Chrome trace_event JSON document,
  /// {"traceEvents": [...]}: a thread-name metadata event, then one
  /// instant event (ph "i", scope "t") per record on that one thread, with
  /// `ts` = sim-time × 10^6 µs (1 sim-time unit = 1 s) and id, value and
  /// aux as `args`.
  Status WriteChromeJson(const std::string& path) const;

 private:
  std::uint32_t mask_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<TraceRecord> records_;
};

}  // namespace obs
}  // namespace asf

// Compile-time gate. ASF_OBS_TRACE is defined (=1) by the build system
// by default; -DASF_OBS_TRACE=OFF at configure time removes every trace
// point from the binary entirely.
#if defined(ASF_OBS_TRACE)
#define ASF_OBS_TRACE_COMPILED 1
/// The engine-side emit point: null tracer or masked-out category is a
/// single branch; `time`/`id`/... evaluate only when live.
#define ASF_TRACE_EVENT(tracer, event_type, time, id, value, aux)            \
  do {                                                                     \
    ::asf::obs::Tracer* asf_trace_t_ = (tracer);                           \
    if (asf_trace_t_ != nullptr &&                                         \
        asf_trace_t_->Wants(::asf::obs::CategoryOf(event_type))) {         \
      asf_trace_t_->Emit((event_type), (time), (id), (value), (aux));      \
    }                                                                      \
  } while (0)
#else
#define ASF_OBS_TRACE_COMPILED 0
#define ASF_TRACE_EVENT(tracer, event_type, time, id, value, aux) \
  do {                                                           \
  } while (0)
#endif

#endif  // ASF_OBS_TRACE_H_
