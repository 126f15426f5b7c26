// Unit tests for stats::FctTracker: the record-duration audit. The flow
// lifecycle (open flows, rejected completions) is tested with
// traffic::FlowTable in flow_table_test.cpp.
#include "stats/fct_tracker.hpp"

#include <gtest/gtest.h>

#include "check/auditor.hpp"

namespace rbs::stats {
namespace {

using sim::SimTime;

TEST(FctTrackerTest, AuditCleanOnConsistentState) {
  FctTracker t;
  t.add({10, SimTime::zero(), SimTime::seconds(1)});
  t.add({10, SimTime::zero(), SimTime::zero()});  // zero-length is consistent
  check::AuditReport report;
  t.audit(report);
  EXPECT_TRUE(report.clean());
}

TEST(FctTrackerTest, AuditFlagsBackwardsRecord) {
  FctTracker t;
  t.add({1, SimTime::seconds(5), SimTime::seconds(2)});  // finish < start
  check::AuditReport report;
  t.audit(report);
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace rbs::stats
