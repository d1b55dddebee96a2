#ifndef ASF_TESTS_RESULT_EQUALITY_H_
#define ASF_TESTS_RESULT_EQUALITY_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/multi_system.h"
#include "engine/run_result.h"
#include "engine/sim_core.h"
#include "net/message.h"
#include "net/network_model.h"

/// \file
/// The result fields of every engine output type, walked in one fixed
/// order by one visitor per type (VisitFields). The golden digests
/// (DigestOf) and the exact equality checks (ExpectSameResult) walk the
/// same list. Floating-point fields are visited as doubles and compared
/// and digested by their raw IEEE bits: the contract is byte identity, not
/// closeness. Performance telemetry (wall time, dispatch path accounting,
/// spill accounting) is not a result and is not visited.
///
/// A visitor `f` is called as f(name, value), with value a std::uint64_t,
/// a double or a std::string.

namespace asf {

template <typename F>
void VisitFields(const std::string& name, const OnlineStats& s, F& f) {
  const OnlineStats::Raw raw = s.ToRaw();
  f(name + ".count", raw.count);
  f(name + ".mean", raw.mean);
  f(name + ".m2", raw.m2);
  f(name + ".min", raw.min);
  f(name + ".max", raw.max);
  f(name + ".sum", raw.sum);
}

/// The outputs of a query's record (QueryRunStats, and so RunResult) that
/// every result visitor below walks.
template <typename F>
void VisitQueryFields(const std::string& prefix, const QueryRunStats& q,
                      F& f) {
  for (int p = 0; p < kNumMessagePhases; ++p) {
    for (int t = 0; t < kNumMessageTypes; ++t) {
      const auto type = static_cast<MessageType>(t);
      f(prefix + (p == 0 ? "messages.init." : "messages.maintenance.") +
            std::string(MessageTypeName(type)),
        q.messages.count(static_cast<MessagePhase>(p), type));
    }
  }
  f(prefix + "updates_reported", q.updates_reported);
  f(prefix + "reinits", q.reinits);
  VisitFields(prefix + "answer_size", q.answer_size, f);
  f(prefix + "oracle_checks", q.oracle_checks);
  f(prefix + "oracle_violations", q.oracle_violations);
  f(prefix + "max_f_plus", q.max_f_plus);
  f(prefix + "max_f_minus", q.max_f_minus);
  f(prefix + "max_worst_rank", static_cast<std::uint64_t>(q.max_worst_rank));
  f(prefix + "oracle_violations_in_flight", q.oracle_violations_in_flight);
  VisitFields(prefix + "update_delay", q.update_delay, f);
}

template <typename F>
void VisitFields(const std::string& prefix, const NetStats& n, F& f) {
  f(prefix + "crossings", n.crossings);
  f(prefix + "update_messages", n.update_messages);
  f(prefix + "update_payloads", n.update_payloads);
  f(prefix + "delivered_crossings", n.delivered_crossings);
  f(prefix + "deploy_messages", n.deploy_messages);
  f(prefix + "control_rpcs", n.control_rpcs);
  f(prefix + "dropped_retired", n.dropped_retired);
  f(prefix + "deploy_dropped_retired", n.deploy_dropped_retired);
  f(prefix + "in_flight_at_end", n.in_flight_at_end);
  f(prefix + "in_flight_crossings_at_end", n.in_flight_crossings_at_end);
  f(prefix + "dropped_loss", n.dropped_loss);
  f(prefix + "dropped_partition", n.dropped_partition);
  f(prefix + "suppressed_stale", n.suppressed_stale);
  f(prefix + "deploy_attempts", n.deploy_attempts);
  f(prefix + "deploy_retransmits", n.deploy_retransmits);
  f(prefix + "deploy_dropped", n.deploy_dropped);
  f(prefix + "deploy_acks", n.deploy_acks);
  f(prefix + "deploy_dup_suppressed", n.deploy_dup_suppressed);
  f(prefix + "deploy_stale_acks", n.deploy_stale_acks);
  f(prefix + "deploy_unacked_at_end", n.deploy_unacked_at_end);
  f(prefix + "probe_retransmits", n.probe_retransmits);
  f(prefix + "probe_failovers", n.probe_failovers);
  f(prefix + "reconcile_exchanges", n.reconcile_exchanges);
  f(prefix + "reconcile_deploys", n.reconcile_deploys);
  VisitFields(prefix + "delay", n.delay, f);
  VisitFields(prefix + "queue_depth", n.queue_depth, f);
}

template <typename F>
void VisitFields(const std::string& prefix, const QueryRunStats& q, F& f) {
  f(prefix + "name", q.name);
  VisitQueryFields(prefix, q, f);
  f(prefix + "fp_filters_installed",
    static_cast<std::uint64_t>(q.fp_filters_installed));
  f(prefix + "fn_filters_installed",
    static_cast<std::uint64_t>(q.fn_filters_installed));
  f(prefix + "deployed_at", q.deployed_at);
  f(prefix + "retired_at", q.retired_at);
}

template <typename F>
void VisitFields(const std::string& prefix, const RunResult& r, F& f) {
  VisitQueryFields(prefix, r, f);
  f(prefix + "fp_filters_installed",
    static_cast<std::uint64_t>(r.fp_filters_installed));
  f(prefix + "fn_filters_installed",
    static_cast<std::uint64_t>(r.fn_filters_installed));
  f(prefix + "updates_generated", r.updates_generated);
  VisitFields(prefix + "net.", r.net, f);
}

template <typename F>
void VisitFields(const std::string& prefix, const MultiQueryResult& r,
                 F& f) {
  f(prefix + "queries", static_cast<std::uint64_t>(r.queries.size()));
  // Not the QueryRunStats visitor: the golden digests of multi-query runs
  // were recorded without the fp/fn filter counts.
  for (std::size_t i = 0; i < r.queries.size(); ++i) {
    const std::string p = prefix + "queries[" + std::to_string(i) + "].";
    const QueryRunStats& q = r.queries[i];
    f(p + "name", q.name);
    VisitQueryFields(p, q, f);
    f(p + "deployed_at", q.deployed_at);
    f(p + "retired_at", q.retired_at);
  }
  f(prefix + "updates_generated", r.updates_generated);
  f(prefix + "physical_updates", r.physical_updates);
  f(prefix + "peak_live_queries",
    static_cast<std::uint64_t>(r.peak_live_queries));
  VisitFields(prefix + "net.", r.net, f);
}

/// FNV-1a over every visited value, in visit order: integers and doubles
/// as their 8 little-endian bytes (doubles by raw IEEE bits), strings as
/// their length and then their bytes. Field names are not hashed.
class ResultDigest {
 public:
  void operator()(const std::string&, std::uint64_t word) { Add(word); }
  void operator()(const std::string&, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(bits);
  }
  void operator()(const std::string&, const std::string& text) {
    Add(text.size());
    for (const char c : text) AddByte(static_cast<unsigned char>(c));
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
  VisitFields("", result, digest);
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

  void operator()(const std::string& name, std::uint64_t v) {
    fields_.push_back({name, v, std::to_string(v)});
  }
  void operator()(const std::string& name, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g (%a)", v, v);
    fields_.push_back({name, bits, buf});
  }
  void operator()(const std::string& name, const std::string& v) {
    fields_.push_back({name, 0, "\"" + v + "\""});
  }
  const std::vector<Field>& fields() const { return fields_; }

 private:
  std::vector<Field> fields_;
};

/// One "name = value" line per visited field, for diffing two runs.
template <typename Result>
std::string FieldDump(const Result& result) {
  FieldRecorder recorder;
  VisitFields("", result, recorder);
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
  VisitFields("", a, fa);
  VisitFields("", b, fb);
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
