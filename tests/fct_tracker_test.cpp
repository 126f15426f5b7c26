// Unit tests for stats::FctTracker: lifecycle accounting (unfinished flows,
// duplicate-completion rejection), quantile edge cases, and the audit.
#include "stats/fct_tracker.hpp"

#include <gtest/gtest.h>

#include "check/auditor.hpp"

namespace rbs::stats {
namespace {

using sim::SimTime;

TEST(FctTrackerTest, LegacyRecordStillWorks) {
  FctTracker t;
  t.record(10, SimTime::seconds(1), SimTime::seconds(3));
  EXPECT_EQ(t.count(), 1u);
  EXPECT_DOUBLE_EQ(t.afct_seconds(), 2.0);
  EXPECT_EQ(t.unfinished(), 0u);
}

TEST(FctTrackerTest, LifecycleProducesIdenticalRecordToLegacyPath) {
  FctTracker lifecycle;
  lifecycle.start_flow(7, 30, SimTime::milliseconds(100));
  EXPECT_TRUE(lifecycle.finish_flow(7, SimTime::milliseconds(450)));

  FctTracker legacy;
  legacy.record(30, SimTime::milliseconds(100), SimTime::milliseconds(450));

  ASSERT_EQ(lifecycle.count(), 1u);
  EXPECT_EQ(lifecycle.records()[0].size_packets, legacy.records()[0].size_packets);
  EXPECT_EQ(lifecycle.records()[0].start, legacy.records()[0].start);
  EXPECT_EQ(lifecycle.records()[0].finish, legacy.records()[0].finish);
}

TEST(FctTrackerTest, UnfinishedFlowsAreCountedAndNotRecorded) {
  FctTracker t;
  t.start_flow(1, 10, SimTime::zero());
  t.start_flow(2, 10, SimTime::seconds(1));
  t.start_flow(3, 10, SimTime::seconds(2));
  EXPECT_EQ(t.unfinished(), 3u);
  EXPECT_EQ(t.count(), 0u);

  EXPECT_TRUE(t.finish_flow(2, SimTime::seconds(5)));
  EXPECT_EQ(t.unfinished(), 2u);
  EXPECT_EQ(t.count(), 1u);
  // Flows 1 and 3 stay open (e.g. stranded by a link outage) and never
  // pollute the AFCT.
  EXPECT_DOUBLE_EQ(t.afct_seconds(), 4.0);
}

TEST(FctTrackerTest, DoubleStartIsRejected) {
  FctTracker t;
  EXPECT_TRUE(t.start_flow(1, 10, SimTime::zero()));
  EXPECT_FALSE(t.start_flow(1, 99, SimTime::seconds(9)));
  EXPECT_EQ(t.unfinished(), 1u);
  // The original entry survives.
  EXPECT_TRUE(t.finish_flow(1, SimTime::seconds(1)));
  EXPECT_EQ(t.records()[0].size_packets, 10);
}

TEST(FctTrackerTest, DuplicateCompletionIsRejectedAndCounted) {
  FctTracker t;
  t.start_flow(1, 10, SimTime::zero());
  EXPECT_TRUE(t.finish_flow(1, SimTime::seconds(1)));
  EXPECT_FALSE(t.finish_flow(1, SimTime::seconds(2)));  // already finished
  EXPECT_FALSE(t.finish_flow(42, SimTime::seconds(2)));  // never started
  EXPECT_EQ(t.duplicate_completions(), 2u);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_DOUBLE_EQ(t.afct_seconds(), 1.0);
}

TEST(FctTrackerTest, AuditCleanOnConsistentState) {
  FctTracker t;
  t.start_flow(1, 10, SimTime::zero());
  t.start_flow(2, 10, SimTime::zero());
  t.finish_flow(1, SimTime::seconds(1));
  check::AuditReport report;
  t.audit(report);
  EXPECT_TRUE(report.clean());
}

TEST(FctTrackerTest, AuditFlagsBackwardsRecord) {
  FctTracker t;
  t.record(1, SimTime::seconds(5), SimTime::seconds(2));  // finish < start
  check::AuditReport report;
  t.audit(report);
  EXPECT_FALSE(report.clean());
}

TEST(FctTrackerTest, ClearResetsLifecycleState) {
  FctTracker t;
  t.start_flow(1, 10, SimTime::zero());
  t.finish_flow(1, SimTime::seconds(1));
  t.finish_flow(1, SimTime::seconds(1));  // duplicate
  t.clear();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.unfinished(), 0u);
  EXPECT_EQ(t.duplicate_completions(), 0u);
  // Ids are reusable after clear().
  EXPECT_TRUE(t.start_flow(1, 10, SimTime::zero()));
}

}  // namespace
}  // namespace rbs::stats
