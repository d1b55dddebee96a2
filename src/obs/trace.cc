#include "obs/trace.h"

#include <cstdio>
#include <cstring>
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

// Binary format, version 2 (host-endian):
//   char[8]  magic "ASFTRC02"
//   u64      record count
//   u64      dropped count
//   TraceRecord[count]   (32 bytes each, verbatim)
// Version 1 dumps ("ASFTRC01", a ring table) do not read: the event
// numbering changed with the format.
Status Tracer::WriteBinary(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IoError("cannot open trace file for writing: " + path);
  }
  const std::uint64_t count = records_.size();
  bool ok = std::fwrite(kTraceMagic, sizeof(kTraceMagic) - 1, 1, out) == 1;
  ok = ok && std::fwrite(&count, sizeof(count), 1, out) == 1;
  ok = ok && std::fwrite(&dropped_, sizeof(dropped_), 1, out) == 1;
  if (count > 0) {
    ok = ok && std::fwrite(records_.data(), sizeof(TraceRecord), count,
                           out) == count;
  }
  ok = std::fclose(out) == 0 && ok;
  if (!ok) return Status::IoError("short write to trace file: " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace asf
