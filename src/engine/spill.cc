#include "engine/spill.h"

#include <atomic>
#include <cstdio>

#include <unistd.h>

#include "common/check.h"
#include "engine/record_fields.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/serde.h"

namespace asf {

Status SpillConfig::Validate() const {
  if (!enabled()) return Status::OK();
  if (buffer_pages < 2) {
    return Status::InvalidArgument(
        "--buffer-pages must be >= 2 (record chains keep two pages pinned)");
  }
  if (page_size < 64 || page_size % 8 != 0) {
    return Status::InvalidArgument(
        "spill page size must be >= 64 and a multiple of 8");
  }
  // Probe that the directory exists and is writable now, so the engine
  // can treat spiller construction as infallible.
  const std::string probe = dir + "/.asf-spill-probe";
  std::FILE* f = std::fopen(probe.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("--spill dir is not writable: " + dir);
  }
  std::fclose(f);
  std::remove(probe.c_str());
  return Status::OK();
}

namespace engine_internal {

std::vector<std::uint8_t> EncodeQueryRecord(const QueryRunStats& stats) {
  storage::ByteWriter out;
  const auto write = [&out](const FieldName&, const auto& v) { out.Put(v); };
  VisitFields(FieldName(), stats, write);
  return out.Take();
}

QueryRunStats DecodeQueryRecord(const std::vector<std::uint8_t>& bytes) {
  storage::ByteReader in(bytes);
  QueryRunStats stats;
  const auto read = [&in](const FieldName&, auto& v) { in.Get(v); };
  VisitFields(FieldName(), stats, read);
  ASF_CHECK_MSG(in.Done(), "spilled query record has trailing bytes");
  return stats;
}

QueryStateSpiller::QueryStateSpiller(const SpillConfig& config,
                                     std::unique_ptr<storage::PageStore> store)
    : config_(config), store_(std::move(store)) {
  pool_ = std::make_unique<storage::BufferPool>(
      store_.get(), config_.buffer_pages, config_.replacement);
  records_ = std::make_unique<storage::PagedRecordStore>(pool_.get());
}

std::unique_ptr<QueryStateSpiller> QueryStateSpiller::Create(
    const SpillConfig& config) {
  ASF_CHECK_MSG(config.enabled(), "spiller created with spilling disabled");
  static std::atomic<std::uint64_t> counter{0};
  const std::string path =
      config.dir + "/asf-spill-" +
      std::to_string(static_cast<long>(getpid())) + "-" +
      std::to_string(counter.fetch_add(1)) + ".pages";
  auto store = storage::PageStore::Create(path, config.page_size);
  ASF_CHECK_MSG(store.ok(), store.status().ToString().c_str());
  return std::unique_ptr<QueryStateSpiller>(
      new QueryStateSpiller(config, std::move(store).value()));
}

QueryStateSpiller::~QueryStateSpiller() {
  const std::string path = store_->path();
  records_.reset();
  pool_.reset();
  store_.reset();  // closes the file before the unlink
  std::remove(path.c_str());
}

storage::RecordRef QueryStateSpiller::Spill(const QueryRunStats& stats) {
  obs::ScopedPhase phase(obs_profiler_, obs::Phase::kSpillIo);
  const std::vector<std::uint8_t> bytes = EncodeQueryRecord(stats);
  auto ref = records_->Write(bytes);
  ASF_CHECK_MSG(ref.ok(), ref.status().ToString().c_str());
  ++records_spilled_;
  spilled_bytes_ += bytes.size();
  ASF_TRACE_EVENT(obs_tracer_, obs::TraceEventType::kSpillEvict,
                  obs_clock_ != nullptr ? obs_clock_->now() : 0.0,
                  static_cast<std::uint32_t>(records_spilled_), 0,
                  bytes.size());
  return *ref;
}

QueryRunStats QueryStateSpiller::Fault(const storage::RecordRef& ref) {
  obs::ScopedPhase phase(obs_profiler_, obs::Phase::kSpillIo);
  auto bytes = records_->Read(ref);
  ASF_CHECK_MSG(bytes.ok(), bytes.status().ToString().c_str());
  ++records_faulted_;
  faulted_bytes_ += bytes->size();
  ASF_TRACE_EVENT(obs_tracer_, obs::TraceEventType::kSpillFault,
                  obs_clock_ != nullptr ? obs_clock_->now() : 0.0,
                  static_cast<std::uint32_t>(records_faulted_), 0,
                  bytes->size());
  return DecodeQueryRecord(*bytes);
}

SpillTelemetry QueryStateSpiller::Telemetry() const {
  SpillTelemetry t;
  t.enabled = true;
  t.records_spilled = records_spilled_;
  t.records_faulted = records_faulted_;
  t.spilled_bytes = spilled_bytes_;
  t.faulted_bytes = faulted_bytes_;
  const storage::BufferPool::Stats& pool = pool_->stats();
  t.pool_hits = pool.hits;
  t.pool_misses = pool.misses;
  t.pool_evictions = pool.evictions;
  t.pool_write_backs = pool.write_backs;
  t.pool_resident_bytes = pool.resident_bytes;
  t.file_bytes = store_->file_bytes();
  t.buffer_pages = config_.buffer_pages;
  t.replacement = std::string(
      storage::ReplacementPolicyName(config_.replacement));
  return t;
}

void SpillRetiredSlot(QueryStateSpiller& spiller, QuerySlot& slot) {
  ASF_CHECK_MSG(!slot.live, "spill of a live slot");
  ASF_CHECK_MSG(!slot.spilled.valid(), "slot spilled twice");
  slot.spilled = spiller.Spill(slot.stats);
  slot.stats_resident = false;
  slot.stats = QueryRunStats();  // back through Fault on demand
}

void EnsureStatsResident(QueryStateSpiller* spiller, QuerySlot& slot) {
  if (slot.stats_resident) return;
  ASF_CHECK_MSG(spiller != nullptr && slot.spilled.valid(),
                "non-resident stats without a spilled record");
  slot.stats = spiller->Fault(slot.spilled);
  slot.stats_resident = true;
}

}  // namespace engine_internal
}  // namespace asf
