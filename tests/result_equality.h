#ifndef ASF_TESTS_RESULT_EQUALITY_H_
#define ASF_TESTS_RESULT_EQUALITY_H_

#include <string>

#include <gtest/gtest.h>

#include "engine/multi_system.h"
#include "net/message.h"

/// \file
/// Field-by-field equality of two multi-query results — the byte-identity
/// contract the engine variants share (serial ≡ sharded, every dispatch
/// policy alike). Only performance telemetry (wall time, dispatch path
/// accounting) may differ.

namespace asf {

inline void ExpectSameStats(const MultiQueryResult::PerQuery& a,
                            const MultiQueryResult::PerQuery& b,
                            const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.name, b.name);
  for (int p = 0; p < kNumMessagePhases; ++p) {
    for (int t = 0; t < kNumMessageTypes; ++t) {
      EXPECT_EQ(a.messages.count(static_cast<MessagePhase>(p),
                                 static_cast<MessageType>(t)),
                b.messages.count(static_cast<MessagePhase>(p),
                                 static_cast<MessageType>(t)))
          << "phase " << p << " type " << t;
    }
  }
  EXPECT_EQ(a.updates_reported, b.updates_reported);
  EXPECT_EQ(a.reinits, b.reinits);
  EXPECT_EQ(a.answer_size.count(), b.answer_size.count());
  EXPECT_EQ(a.answer_size.mean(), b.answer_size.mean());
  EXPECT_EQ(a.answer_size.variance(), b.answer_size.variance());
  EXPECT_EQ(a.answer_size.min(), b.answer_size.min());
  EXPECT_EQ(a.answer_size.max(), b.answer_size.max());
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.oracle_violations, b.oracle_violations);
  EXPECT_EQ(a.max_f_plus, b.max_f_plus);
  EXPECT_EQ(a.max_f_minus, b.max_f_minus);
  EXPECT_EQ(a.max_worst_rank, b.max_worst_rank);
  EXPECT_EQ(a.deployed_at, b.deployed_at);
  EXPECT_EQ(a.retired_at, b.retired_at);
}

inline void ExpectSameResult(const MultiQueryResult& a,
                             const MultiQueryResult& b,
                             const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    ExpectSameStats(a.queries[i], b.queries[i],
                    label + " query " + std::to_string(i));
  }
  EXPECT_EQ(a.updates_generated, b.updates_generated);
  EXPECT_EQ(a.physical_updates, b.physical_updates);
  EXPECT_EQ(a.peak_live_queries, b.peak_live_queries);
}

}  // namespace asf

#endif  // ASF_TESTS_RESULT_EQUALITY_H_
