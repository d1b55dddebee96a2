#ifndef ASF_COMMON_FLAGS_H_
#define ASF_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// \file
/// Minimal command-line flag parsing for the tools/ binaries. Supports
/// `--key=value`, `--key value`, and bare boolean `--key` forms; everything
/// else is a positional argument. RunTool is every tool's `main`.

namespace asf {

/// Parses all of `text` as one number (strtod syntax), failing on trailing
/// characters, an empty text or overflow. `what` names the value in the
/// error, e.g. "--range".
Result<double> ParseDouble(const std::string& text, const std::string& what);

/// Parsed command line.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped). Fails on malformed flags such as
  /// `--=x`.
  static Result<Flags> Parse(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of --name, or `fallback` when absent. A bare boolean
  /// flag yields "true".
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;

  /// Numeric accessors; return an error Status when the flag is present
  /// but unparsable (GetDouble by ParseDouble's rule).
  Result<double> GetDouble(const std::string& name, double fallback) const;
  Result<std::int64_t> GetInt(const std::string& name,
                              std::int64_t fallback) const;
  /// Boolean: absent -> fallback; present bare or "true"/"1" -> true;
  /// "false"/"0" -> false; anything else is an error.
  Result<bool> GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// The set of flag names seen (for unknown-flag checks).
  std::vector<std::string> Names() const;

  /// Fails with "unknown flag --NAME" on the first flag (in name order)
  /// that is not in `known`, so a mistyped flag cannot silently fall back
  /// to its default.
  Status RejectUnknown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// A command-line tool's whole `main`, which owns the exit-status
/// contract of every tool: 2 for a malformed or unknown flag (anything
/// not in `known`), 0 after printing `help` for --help, otherwise `run`'s
/// verdict, 1 when it fails. Every failure prints its message to stderr.
int RunTool(int argc, const char* const* argv,
            const std::vector<std::string>& known, const char* help,
            Status (*run)(const Flags&));

}  // namespace asf

#endif  // ASF_COMMON_FLAGS_H_
