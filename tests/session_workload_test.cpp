// Tests for the Harpoon-style closed-loop session workload.
#include "traffic/session_workload.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"

namespace rbs::traffic {
namespace {

using namespace rbs::sim::literals;
using sim::SimTime;

net::DumbbellConfig small_topo(int leaves) {
  net::DumbbellConfig cfg;
  cfg.num_leaves = leaves;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.buffer_packets = 100;
  cfg.access_delay_min = 2_ms;
  cfg.access_delay_max = 20_ms;
  return cfg;
}

TEST(SessionWorkload, RunsOneSessionPerLeafByDefault) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(6)};
  FixedFlowSize sizes{20};
  SessionWorkload wl{sim, topo, sizes, SessionWorkloadConfig{}};
  EXPECT_EQ(wl.num_sessions(), 6);
  sim.run_until(SimTime::seconds(20));
  EXPECT_GT(wl.transfers_completed(), 20u);
}

TEST(SessionWorkload, ClosedLoopAlternatesTransferAndThink) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(2)};
  FixedFlowSize sizes{10};
  SessionWorkloadConfig cfg;
  cfg.mean_think_time_sec = 0.5;
  SessionWorkload wl{sim, topo, sizes, cfg};
  sim.run_until(SimTime::seconds(30));
  // Each cycle ~ FCT (~0.1 s) + think (~0.5 s): roughly 30/0.6 * 2 sessions.
  EXPECT_GT(wl.transfers_completed(), 50u);
  EXPECT_LT(wl.transfers_completed(), 160u);
  // Never more concurrent transfers than sessions.
  EXPECT_LE(wl.sessions_active(), wl.num_sessions());
}

TEST(SessionWorkload, RecordsCompletionTimes) {
  sim::Simulation sim{3};
  net::Dumbbell topo{sim, small_topo(4)};
  FixedFlowSize sizes{15};
  SessionWorkload wl{sim, topo, sizes, SessionWorkloadConfig{}};
  sim.run_until(SimTime::seconds(15));
  ASSERT_GT(wl.completions().count(), 0u);
  for (const auto& rec : wl.completions().records()) {
    EXPECT_EQ(rec.size_packets, 15);
    EXPECT_GT(rec.completion_time(), SimTime::zero());
    EXPECT_LT(rec.completion_time(), SimTime::seconds(5));
  }
}

TEST(SessionWorkload, StopQuiescesGracefully) {
  sim::Simulation sim{4};
  net::Dumbbell topo{sim, small_topo(3)};
  FixedFlowSize sizes{10};
  SessionWorkload wl{sim, topo, sizes, SessionWorkloadConfig{}};
  sim.run_until(SimTime::seconds(5));
  wl.stop();
  sim.run_until(SimTime::seconds(15));
  EXPECT_EQ(wl.sessions_active(), 0);
  const auto done = wl.transfers_completed();
  sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(wl.transfers_completed(), done);  // nothing new starts
}

TEST(SessionWorkload, MultipleSessionsPerLeafMultiplexOneHost) {
  sim::Simulation sim{5};
  net::Dumbbell topo{sim, small_topo(2)};
  FixedFlowSize sizes{10};
  SessionWorkloadConfig cfg;
  cfg.sessions_per_leaf = 4;
  SessionWorkload wl{sim, topo, sizes, cfg};
  EXPECT_EQ(wl.num_sessions(), 8);
  sim.run_until(SimTime::seconds(10));
  EXPECT_GT(wl.transfers_completed(), 30u);
  // No packets lost to missing agents.
  EXPECT_EQ(topo.receiver(0).unclaimed_packets(), 0u);
  EXPECT_EQ(topo.receiver(1).unclaimed_packets(), 0u);
}

TEST(SessionWorkload, HeavyTailedSizesProduceLongAndShortTransfers) {
  sim::Simulation sim{6};
  net::Dumbbell topo{sim, small_topo(8)};
  ParetoFlowSize sizes{1.2, 2, 5000};
  SessionWorkloadConfig cfg;
  cfg.mean_think_time_sec = 0.2;
  SessionWorkload wl{sim, topo, sizes, cfg};
  sim.run_until(SimTime::seconds(40));
  ASSERT_GT(wl.completions().count(), 50u);
  std::int64_t min_size = 1 << 30, max_size = 0;
  for (const auto& rec : wl.completions().records()) {
    min_size = std::min(min_size, rec.size_packets);
    max_size = std::max(max_size, rec.size_packets);
  }
  EXPECT_LE(min_size, 4);
  EXPECT_GE(max_size, 100);
}

TEST(SessionWorkload, ZeroSessionsPerLeafThrows) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(4)};
  FixedFlowSize sizes{20};
  SessionWorkloadConfig cfg;
  cfg.sessions_per_leaf = 0;
  EXPECT_THROW((SessionWorkload{sim, topo, sizes, cfg}), std::invalid_argument);
  cfg.sessions_per_leaf = 1;
  cfg.mean_think_time_sec = -1.0;
  EXPECT_THROW((SessionWorkload{sim, topo, sizes, cfg}), std::invalid_argument);
}

}  // namespace
}  // namespace rbs::traffic
