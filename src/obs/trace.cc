#include "obs/trace.h"

#include <cstdio>
#include <sstream>

namespace asf {
namespace obs {
namespace {

struct CategoryEntry {
  const char* name;
  std::uint32_t bit;
};

constexpr CategoryEntry kCategories[] = {
    {"update", kCatUpdate},       {"crossing", kCatCrossing},
    {"wire", kCatWire},           {"lifecycle", kCatLifecycle},
    {"index", kCatIndex},         {"spill", kCatSpill},
};

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kValueUpdate:
      return "value_update";
    case TraceEventType::kCrossing:
      return "crossing";
    case TraceEventType::kWireSend:
      return "wire_send";
    case TraceEventType::kWireDeliver:
      return "wire_deliver";
    case TraceEventType::kWireDrop:
      return "wire_drop";
    case TraceEventType::kDeploy:
      return "deploy";
    case TraceEventType::kRetire:
      return "retire";
    case TraceEventType::kIndexRebuild:
      return "index_rebuild";
    case TraceEventType::kSpillEvict:
      return "spill_evict";
    case TraceEventType::kSpillFault:
      return "spill_fault";
    case TraceEventType::kNumTypes:
      break;
  }
  return "unknown";
}

const char* TraceCategoryName(std::uint32_t category_bit) {
  for (const CategoryEntry& entry : kCategories) {
    if (entry.bit == category_bit) return entry.name;
  }
  return "unknown";
}

Result<std::uint32_t> ParseCategoryMask(const std::string& csv) {
  if (csv.empty() || csv == "all") return kCatAll;
  std::uint32_t mask = 0;
  std::stringstream stream(csv);
  std::string name;
  while (std::getline(stream, name, ',')) {
    if (name.empty()) continue;
    if (name == "all") {
      mask |= kCatAll;
      continue;
    }
    bool found = false;
    for (const CategoryEntry& entry : kCategories) {
      if (name == entry.name) {
        mask |= entry.bit;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown trace category: " + name);
    }
  }
  if (mask == 0) {
    return Status::InvalidArgument("empty trace category mask: " + csv);
  }
  return mask;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("cannot open trace file for writing: " + path);
  }
  // Thread-name metadata so chrome://tracing labels the engine's track;
  // ts 0 keeps every event's name/ph/ts triple complete.
  std::fputs(
      "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\","
      "\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"engine\"}}",
      out);
  for (const TraceRecord& record : records_) {
    const auto type = static_cast<TraceEventType>(record.type);
    std::fprintf(out,
                 ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                 "\"ts\":%.6f,\"pid\":0,\"tid\":0,\"args\":{\"id\":%u,"
                 "\"value\":%.17g,\"aux\":%llu}}",
                 TraceEventTypeName(type), TraceCategoryName(CategoryOf(type)),
                 record.time * 1e6, record.id, record.value,
                 static_cast<unsigned long long>(record.aux));
  }
  std::fputs("]}\n", out);
  const bool ok = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !ok) {
    return Status::IoError("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace asf
