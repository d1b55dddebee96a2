#include "obs/trace_convert.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace asf {
namespace obs {

Result<TraceFileData> ReadTraceBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open trace file: " + path);
  const std::streamoff file_size = in.tellg();
  in.seekg(0);

  char magic[8];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, "ASFTRC01", 8) != 0) {
    return Status::Corruption("not an asf trace file (bad magic): " + path);
  }
  std::uint32_t ring_count = 0;
  std::uint32_t reserved = 0;
  if (!in.read(reinterpret_cast<char*>(&ring_count), sizeof(ring_count)) ||
      !in.read(reinterpret_cast<char*>(&reserved), sizeof(reserved))) {
    return Status::Corruption("truncated trace header: " + path);
  }
  if (ring_count > (1u << 20)) {
    return Status::Corruption("implausible ring count in trace: " + path);
  }

  TraceFileData data;
  data.rings.resize(ring_count);
  for (std::uint32_t r = 0; r < ring_count; ++r) {
    std::uint64_t count = 0;
    std::uint64_t dropped = 0;
    if (!in.read(reinterpret_cast<char*>(&count), sizeof(count)) ||
        !in.read(reinterpret_cast<char*>(&dropped), sizeof(dropped))) {
      return Status::Corruption("truncated ring header in trace: " + path);
    }
    // A forged count must fail here, not size the allocation below.
    const auto left = static_cast<std::uint64_t>(file_size - in.tellg());
    if (count > left / sizeof(TraceRecord)) {
      return Status::Corruption("record count exceeds the trace file: " +
                                path);
    }
    TraceFileRing& ring = data.rings[r];
    ring.dropped = dropped;
    ring.records.resize(count);
    if (count > 0 &&
        !in.read(reinterpret_cast<char*>(ring.records.data()),
                 static_cast<std::streamsize>(count * sizeof(TraceRecord)))) {
      return Status::Corruption("truncated record block in trace: " + path);
    }
  }
  return data;
}

std::string ChromeTraceJson(const TraceFileData& data, double ts_scale) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[320];

  // Thread-name metadata so chrome://tracing labels each ring's track;
  // ts 0 keeps every event's name/ph/ts triple complete.
  for (std::size_t r = 0; r < data.rings.size(); ++r) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%zu,\"ts\":0,\"args\":{\"name\":\"ring %zu\"}}",
                  first ? "" : ",", r, r);
    out << buf;
    first = false;
  }

  for (const TraceFileRing& ring : data.rings) {
    for (const TraceRecord& record : ring.records) {
      const auto type = static_cast<TraceEventType>(record.type);
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
          "\"ts\":%.6f,\"pid\":0,\"tid\":%u,\"args\":{\"id\":%u,"
          "\"value\":%.17g,\"aux\":%llu}}",
          first ? "" : ",", TraceEventTypeName(type),
          TraceCategoryName(CategoryOf(type)), record.time * ts_scale,
          static_cast<unsigned>(record.ring), record.id, record.value,
          static_cast<unsigned long long>(record.aux));
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
  return out.str();
}

Status WriteChromeTraceJson(const std::string& in_path,
                            const std::string& out_path, double ts_scale) {
  auto data = ReadTraceBinary(in_path);
  if (!data.ok()) return data.status();
  const std::string json = ChromeTraceJson(*data, ts_scale);
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("cannot open output file: " + out_path);
  }
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), out) == json.size();
  if (std::fclose(out) != 0 || !ok) {
    return Status::IoError("short write to: " + out_path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace asf
