#ifndef ASF_TESTS_RESULT_EQUALITY_H_
#define ASF_TESTS_RESULT_EQUALITY_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "engine/multi_system.h"
#include "engine/record_fields.h"
#include "engine/run_result.h"

/// \file
/// The result fields of every engine output type, walked in one fixed
/// order (VisitResultFields), built from the record's field list
/// (engine/record_fields.h). The golden digests (DigestOf) and the exact
/// equality checks (ExpectSameResult) walk the same order. Floating-point
/// fields are compared and digested by their raw IEEE bits: the contract
/// is byte identity, not closeness. Performance telemetry (wall time,
/// dispatch path accounting, spill accounting) is not a result and is not
/// visited.

namespace asf {

/// A single-query run: the query's outputs, its silent-filter counts,
/// then the updates generated and the net accounting. Changing this
/// order re-records the golden constants.
template <typename F>
void VisitResultFields(const RunResult& r, F& f) {
  const FieldName root;
  const QueryRunStats& q = r;
  VisitQueryOutputs(root, q, f);
  f(root.Child("fp_filters_installed"), q.fp_filters_installed);
  f(root.Child("fn_filters_installed"), q.fn_filters_installed);
  f(root.Child("updates_generated"), r.updates_generated);
  VisitFields(root.Child("net"), r.net, f);
}

/// A multi-query run: the query count, each query's name, outputs and
/// live window, then the run totals. Not the whole per-query record: the
/// golden digests of multi-query runs were recorded without the
/// silent-filter counts and the accounting phase.
template <typename F>
void VisitResultFields(const MultiQueryResult& r, F& f) {
  const FieldName root;
  f(root.Child("queries"), r.queries.size());
  for (std::size_t i = 0; i < r.queries.size(); ++i) {
    const std::string prefix = "queries[" + std::to_string(i) + "]";
    const FieldName at(prefix);
    const QueryRunStats& q = r.queries[i];
    f(at.Child("name"), q.name);
    VisitQueryOutputs(at, q, f);
    f(at.Child("deployed_at"), q.deployed_at);
    f(at.Child("retired_at"), q.retired_at);
  }
  VisitRunTotals(root, r, f);
}

/// One query's whole record.
template <typename F>
void VisitResultFields(const QueryRunStats& q, F& f) {
  VisitFields(FieldName(), q, f);
}

/// FNV-1a over every visited value, in visit order: integers and doubles
/// as their 8 little-endian bytes (doubles by raw IEEE bits), strings as
/// their length and then their bytes. Field names are not hashed.
class ResultDigest {
 public:
  template <typename T>
  void operator()(const FieldName&, const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      Add(value.size());
      for (const char c : value) AddByte(static_cast<unsigned char>(c));
    } else if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof bits);
      Add(bits);
    } else {
      Add(static_cast<std::uint64_t>(value));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) AddByte((word >> (8 * b)) & 0xff);
  }
  void AddByte(std::uint64_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

template <typename Result>
std::uint64_t DigestOf(const Result& result) {
  ResultDigest digest;
  VisitResultFields(result, digest);
  return digest.value();
}

/// Records each visited field as its name, its raw bits (doubles by IEEE
/// bits) and its text; doubles print exactly (%a).
class FieldRecorder {
 public:
  struct Field {
    std::string name;
    std::uint64_t bits = 0;
    std::string text;
  };

  template <typename T>
  void operator()(const FieldName& name, const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      fields_.push_back({name.str(), 0, "\"" + value + "\""});
    } else if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof bits);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g (%a)", value, value);
      fields_.push_back({name.str(), bits, buf});
    } else {
      const auto v = static_cast<std::uint64_t>(value);
      fields_.push_back({name.str(), v, std::to_string(v)});
    }
  }
  const std::vector<Field>& fields() const { return fields_; }

 private:
  std::vector<Field> fields_;
};

/// One "name = value" line per visited field, for diffing two runs.
template <typename Result>
std::string FieldDump(const Result& result) {
  FieldRecorder recorder;
  VisitResultFields(result, recorder);
  std::string out;
  for (const FieldRecorder::Field& f : recorder.fields()) {
    out += f.name + " = " + f.text + "\n";
  }
  return out;
}

/// Expects `a` and `b` to agree on every visited field, bit for bit,
/// reporting each field that differs by name.
template <typename Result>
void ExpectSameResult(const Result& a, const Result& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  FieldRecorder fa;
  FieldRecorder fb;
  VisitResultFields(a, fa);
  VisitResultFields(b, fb);
  ASSERT_EQ(fa.fields().size(), fb.fields().size())
      << "the results differ in shape (query count)";
  for (std::size_t i = 0; i < fa.fields().size(); ++i) {
    const FieldRecorder::Field& x = fa.fields()[i];
    const FieldRecorder::Field& y = fb.fields()[i];
    EXPECT_TRUE(x.name == y.name && x.bits == y.bits && x.text == y.text)
        << x.name << ": " << x.text << " vs " << y.text;
  }
}

}  // namespace asf

#endif  // ASF_TESTS_RESULT_EQUALITY_H_
