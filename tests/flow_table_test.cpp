// Tests for the shared finite-flow lifecycle: LeafPlacement's range checks
// and FlowTable's launch/reap/audit accounting.
#include "traffic/flow_table.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "check/auditor.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"

namespace rbs::traffic {
namespace {

using sim::SimTime;

net::DumbbellConfig small_topo() {
  net::DumbbellConfig cfg;
  cfg.num_leaves = 4;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.buffer_packets = 100;
  cfg.access_delay_min = SimTime::milliseconds(2);
  cfg.access_delay_max = SimTime::milliseconds(10);
  return cfg;
}

TEST(LeafPlacement, ChecksTheRangeAgainstTheTopology) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo()};

  const LeafPlacement all{topo, LeafRange{}};
  EXPECT_EQ(all.count(), 4);
  EXPECT_EQ(all.leaf(0), 0);
  const LeafPlacement tail{topo, {1}};
  EXPECT_EQ(tail.count(), 3);
  EXPECT_EQ(tail.leaf(0), 1);
  EXPECT_EQ(tail.leaf(2), 3);
  EXPECT_EQ(tail.leaf(3), 1);  // round-robin
  EXPECT_EQ((LeafPlacement{topo, {4, 0}}.count()), 0);  // empty but inside

  EXPECT_THROW((LeafPlacement{topo, {6, 4}}), std::invalid_argument);
  EXPECT_THROW((LeafPlacement{topo, {2, 3}}), std::invalid_argument);
  EXPECT_THROW((LeafPlacement{topo, {5}}), std::invalid_argument);
  EXPECT_THROW((LeafPlacement{topo, {-1, 2}}), std::invalid_argument);
  EXPECT_THROW((LeafPlacement{topo, {std::numeric_limits<int>::min()}}),
               std::invalid_argument);
  // Every negative count is rejected; none stands for "all leaves".
  EXPECT_THROW((LeafPlacement{topo, {0, -1}}), std::invalid_argument);
  EXPECT_THROW((LeafPlacement{topo, {0, -2}}), std::invalid_argument);
}

TEST(FlowTable, ReapRecordsCountsHooksThenTearsDown) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo()};
  FlowTable table{sim, topo, tcp::TcpConfig{}, tcp::TcpSinkConfig{}};
  sim.run_until(SimTime::milliseconds(100));

  stats::FlowRecord seen;
  table.on_flow_complete = [&](const tcp::TcpSource& src) {
    seen = {src.flow_packets(), src.start_time(), src.finish_time()};
    EXPECT_EQ(table.completions().count(), 1u);  // recorded first,
    EXPECT_EQ(table.flows_completed(), 1u);      // then counted,
    EXPECT_EQ(table.flows_active(), 1u);         // torn down only after the hook
  };
  bool then_ran = false;
  EXPECT_TRUE(table.launch(2, 7, 30, [&] {
    EXPECT_EQ(table.flows_active(), 0u);
    then_ran = true;
  }));
  sim.run_until(SimTime::seconds(10));

  EXPECT_TRUE(then_ran);
  ASSERT_EQ(table.completions().count(), 1u);
  const auto& r = table.completions().records()[0];
  EXPECT_EQ(r.size_packets, 30);
  EXPECT_EQ(r.start, SimTime::milliseconds(100));
  EXPECT_EQ(r.size_packets, seen.size_packets);
  EXPECT_EQ(r.start, seen.start);
  EXPECT_EQ(r.finish, seen.finish);
}

TEST(FlowTable, ActiveFlowsAreCountedAndNotRecorded) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo()};
  FlowTable table{sim, topo, tcp::TcpConfig{}, tcp::TcpSinkConfig{}};
  table.launch(0, 1, 1'000'000);
  table.launch(1, 2, 10);
  table.launch(2, 3, 1'000'000);
  EXPECT_EQ(table.flows_active(), 3u);
  EXPECT_EQ(table.completions().count(), 0u);

  sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(table.flows_active(), 2u);
  ASSERT_EQ(table.completions().count(), 1u);
  // Flows 1 and 3 stay open (as a downed link can strand flows) and never
  // pollute the AFCT.
  EXPECT_DOUBLE_EQ(table.completions().afct_seconds(),
                   table.completions().records()[0].completion_time().to_seconds());
  EXPECT_EQ(table.flows_started(), table.flows_completed() + table.flows_active());
}

TEST(FlowTable, DoubleLaunchIsRejected) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo()};
  FlowTable table{sim, topo, tcp::TcpConfig{}, tcp::TcpSinkConfig{}};
  EXPECT_TRUE(table.launch(0, 1, 10));
  EXPECT_FALSE(table.launch(1, 1, 99));
  EXPECT_EQ(table.flows_active(), 1u);
  EXPECT_EQ(table.flows_started(), 1u);
  // The original flow survives.
  sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(table.completions().count(), 1u);
  EXPECT_EQ(table.completions().records()[0].size_packets, 10);
}

TEST(FlowTable, CompletionForAnIdThatIsNotOpenIsRejectedAndCounted) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo()};
  FlowTable table{sim, topo, tcp::TcpConfig{}, tcp::TcpSinkConfig{}};
  table.launch(0, 1, 10);
  sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(table.flows_completed(), 1u);

  EXPECT_FALSE(table.reap(1));   // reaped already
  EXPECT_FALSE(table.reap(42));  // never launched
  EXPECT_EQ(table.rejected_completions(), 2u);
  EXPECT_EQ(table.flows_completed(), 1u);
  EXPECT_EQ(table.completions().count(), 1u);
}

TEST(FlowTable, ReapedIdsCanBeLaunchedAgain) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo()};
  FlowTable table{sim, topo, tcp::TcpConfig{}, tcp::TcpSinkConfig{}};
  table.launch(0, 1, 10);
  sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(table.flows_active(), 0u);

  EXPECT_TRUE(table.launch(0, 1, 10));
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(table.flows_active(), 0u);
  EXPECT_EQ(table.flows_completed(), 2u);
  EXPECT_EQ(table.completions().count(), 2u);
}

TEST(FlowTable, AuditHoldsUnderChurn) {
  sim::Simulation sim{3};
  net::Dumbbell topo{sim, small_topo()};
  FlowTable table{sim, topo, tcp::TcpConfig{}, tcp::TcpSinkConfig{}};
  check::InvariantAuditor auditor;
  auditor.add("flows", table);
  sim.enable_auditing(auditor, 100);
  // 300 overlapping flows of 1..40 packets, one every 7 ms over 4 leaves.
  for (int i = 0; i < 300; ++i) {
    sim.at(SimTime::milliseconds(7 * i), [&table, i] {
      table.launch(i % 4, static_cast<net::FlowId>(100 + i), 1 + (i * 13) % 40);
    });
  }
  sim.run_until(SimTime::seconds(1));
  EXPECT_GT(table.flows_active(), 0u);
  EXPECT_EQ(table.flows_started(), table.flows_completed() + table.flows_active());
  sim.run_until(SimTime::seconds(30));
  auditor.audit_now();
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_EQ(table.flows_started(), 300u);
  EXPECT_EQ(table.flows_completed(), 300u);
  EXPECT_EQ(table.rejected_completions(), 0u);
}

}  // namespace
}  // namespace rbs::traffic
