#include "trace/trace_io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace asf {

Status WriteTraceCsv(const TraceData& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << "num_streams," << trace.num_streams() << "\n";
  if (!trace.initial_values().empty()) {
    out << "initial";
    char buf[64];
    for (Value v : trace.initial_values()) {
      std::snprintf(buf, sizeof(buf), ",%.17g", v);
      out << buf;
    }
    out << "\n";
  }
  char buf[128];
  for (const TraceRecord& rec : trace.records()) {
    std::snprintf(buf, sizeof(buf), "%.17g,%u,%.17g\n", rec.time, rec.stream,
                  rec.value);
    out << buf;
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

namespace {

/// Splits a CSV line on commas (no quoting; the format never needs it).
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::stringstream ss(line);
  while (std::getline(ss, field, ',')) fields.push_back(field);
  return fields;
}

Status ParseDouble(const std::string& s, double* out) {
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || errno == ERANGE) {
    return Status::Corruption("bad numeric field: '" + s + "'");
  }
  return Status::OK();
}

}  // namespace

Result<TraceData> ReadTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  std::size_t num_streams = 0;
  std::vector<Value> initial_values;
  std::vector<TraceRecord> records;
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("empty trace file: " + path);
  }
  {
    const auto fields = SplitCsv(line);
    if (fields.size() != 2 || fields[0] != "num_streams") {
      return Status::Corruption("expected 'num_streams,<n>' header");
    }
    double n = 0;
    ASF_RETURN_IF_ERROR(ParseDouble(fields[1], &n));
    // Range-check before the cast (converting NaN, an infinity or an
    // out-of-range double to an integer is undefined) and before the
    // count sizes anything.
    if (!(n >= 1 && n <= static_cast<double>(kMaxStreams))) {
      return Status::Corruption("num_streams must lie in [1, " +
                                std::to_string(kMaxStreams) + "]");
    }
    num_streams = static_cast<std::size_t>(n);
  }

  bool first_data_line = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = SplitCsv(line);
    if (first_data_line && !fields.empty() && fields[0] == "initial") {
      if (fields.size() != num_streams + 1) {
        return Status::Corruption("initial line must list one value per stream");
      }
      initial_values.resize(num_streams);
      for (std::size_t i = 0; i < num_streams; ++i) {
        ASF_RETURN_IF_ERROR(ParseDouble(fields[i + 1], &initial_values[i]));
      }
      first_data_line = false;
      continue;
    }
    first_data_line = false;
    if (fields.size() != 3) {
      return Status::Corruption("expected '<time>,<stream>,<value>' record");
    }
    TraceRecord rec;
    double stream = 0;
    ASF_RETURN_IF_ERROR(ParseDouble(fields[0], &rec.time));
    ASF_RETURN_IF_ERROR(ParseDouble(fields[1], &stream));
    ASF_RETURN_IF_ERROR(ParseDouble(fields[2], &rec.value));
    if (stream < 0 || stream != std::floor(stream)) {
      return Status::Corruption("stream id must be a non-negative integer");
    }
    if (stream >= static_cast<double>(num_streams)) {
      return Status::OutOfRange("trace record references unknown stream");
    }
    rec.stream = static_cast<StreamId>(stream);
    records.push_back(rec);
  }
  return TraceData::Make(num_streams, std::move(initial_values),
                         std::move(records));
}

}  // namespace asf
