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

  char magic[sizeof(kTraceMagic) - 1];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0) {
    return Status::Corruption("not a version-2 asf trace file (bad magic): " +
                              path);
  }
  TraceFileData data;
  std::uint64_t count = 0;
  if (!in.read(reinterpret_cast<char*>(&count), sizeof(count)) ||
      !in.read(reinterpret_cast<char*>(&data.dropped), sizeof(data.dropped))) {
    return Status::Corruption("truncated trace header: " + path);
  }
  // A forged count must fail here, not size the allocation below.
  const auto left = static_cast<std::uint64_t>(file_size - in.tellg());
  if (count > left / sizeof(TraceRecord)) {
    return Status::Corruption("record count exceeds the trace file: " + path);
  }
  data.records.resize(count);
  if (count > 0 &&
      !in.read(reinterpret_cast<char*>(data.records.data()),
               static_cast<std::streamsize>(count * sizeof(TraceRecord)))) {
    return Status::Corruption("truncated record block in trace: " + path);
  }
  return data;
}

std::string ChromeTraceJson(const TraceFileData& data, double ts_scale) {
  std::ostringstream out;
  // Thread-name metadata so chrome://tracing labels the engine's track;
  // ts 0 keeps every event's name/ph/ts triple complete.
  out << "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\","
         "\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"engine\"}}";
  char buf[320];
  for (const TraceRecord& record : data.records) {
    const auto type = static_cast<TraceEventType>(record.type);
    std::snprintf(
        buf, sizeof(buf),
        ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
        "\"ts\":%.6f,\"pid\":0,\"tid\":0,\"args\":{\"id\":%u,"
        "\"value\":%.17g,\"aux\":%llu}}",
        TraceEventTypeName(type), TraceCategoryName(CategoryOf(type)),
        record.time * ts_scale, record.id, record.value,
        static_cast<unsigned long long>(record.aux));
    out << buf;
  }
  out << "]}\n";
  return out.str();
}

}  // namespace obs
}  // namespace asf
