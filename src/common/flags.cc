#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace asf {

Result<Flags> Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a flag");
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string key = body.substr(0, eq);
      if (key.empty()) {
        return Status::InvalidArgument("malformed flag: " + arg);
      }
      flags.values_[key] = body.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a flag; otherwise a
    // bare boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.contains(name);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<double> ParseDouble(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(what + " expects a number, got '" + text +
                                   "'");
  }
  return v;
}

Result<double> Flags::GetDouble(const std::string& name,
                                double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return ParseDouble(it->second, "--" + name);
}

Result<std::int64_t> Flags::GetInt(const std::string& name,
                                   std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                   it->second + "'");
  }
  return static_cast<std::int64_t>(v);
}

Result<bool> Flags::GetBool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  return Status::InvalidArgument("--" + name + " expects a boolean, got '" +
                                 v + "'");
}

std::vector<std::string> Flags::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [key, value] : values_) names.push_back(key);
  return names;
}

Status Flags::RejectUnknown(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::OK();
}

int RunTool(int argc, const char* const* argv,
            const std::vector<std::string>& known, const char* help,
            Status (*run)(const Flags&)) {
  const Result<Flags> flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (const Status status = flags->RejectUnknown(known); !status.ok()) {
    std::fprintf(stderr, "%s\n(try --help)\n", status.ToString().c_str());
    return 2;
  }
  if (flags->Has("help")) {
    std::fputs(help, stdout);
    return 0;
  }
  if (const Status status = run(*flags); !status.ok()) {
    std::fprintf(stderr, "%s\n(try --help)\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace asf
