// Tests for the traffic workloads: long-lived flows, Poisson short flows,
// and UDP sources over a dumbbell.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/units.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "traffic/long_flow_workload.hpp"
#include "traffic/short_flow_workload.hpp"
#include "traffic/udp_source.hpp"

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

TEST(ArrivalRateForLoad, MatchesHandComputation) {
  // load 0.8 on 80 Mb/s with 62-packet (1000 B) flows:
  // 0.8 * 80e6 / (62 * 8000) = 129.03 flows/s.
  EXPECT_NEAR(arrival_rate_for_load(0.8, core::BitsPerSec{80e6}, 62, core::Bytes{1000}), 129.03, 0.01);
}

TEST(LongFlowWorkload, StartsOneFlowPerLeaf) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(8)};
  LongFlowWorkload wl{sim, topo, LongFlowWorkloadConfig{}};
  EXPECT_EQ(wl.num_flows(), 8);
  sim.run_until(SimTime::seconds(8));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(wl.source(i).started());
    EXPECT_GT(wl.source(i).snd_una(), 0) << "flow " << i << " made no progress";
  }
}

TEST(LongFlowWorkload, TotalCwndIsSumOfSnapshots) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(5)};
  LongFlowWorkload wl{sim, topo, LongFlowWorkloadConfig{}};
  sim.run_until(SimTime::seconds(6));
  const auto snapshot = wl.cwnd_snapshot();
  ASSERT_EQ(snapshot.size(), 5u);
  double total = 0;
  for (const double w : snapshot) total += w;
  EXPECT_DOUBLE_EQ(wl.total_cwnd(), total);
}

TEST(LongFlowWorkload, StaggeredStartsWithinWindow) {
  sim::Simulation sim{3};
  net::Dumbbell topo{sim, small_topo(20)};
  LongFlowWorkloadConfig cfg;
  cfg.start_stagger = SimTime::seconds(2);
  LongFlowWorkload wl{sim, topo, cfg};
  sim.run_until(SimTime::seconds(3));
  for (int i = 0; i < 20; ++i) {
    EXPECT_LE(wl.source(i).start_time(), SimTime::seconds(2));
  }
}

TEST(LongFlowWorkload, AggregateStatsSumAcrossFlows) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(4)};
  LongFlowWorkload wl{sim, topo, LongFlowWorkloadConfig{}};
  sim.run_until(SimTime::seconds(6));
  const auto total = wl.total_stats();
  std::uint64_t sent = 0;
  for (int i = 0; i < 4; ++i) sent += wl.source(i).stats().data_packets_sent;
  EXPECT_EQ(total.data_packets_sent, sent);
  EXPECT_GT(sent, 0u);
}

TEST(ShortFlowWorkload, PoissonArrivalCountNearExpectation) {
  sim::Simulation sim{5};
  net::Dumbbell topo{sim, small_topo(10)};
  FixedFlowSize sizes{5};
  ShortFlowWorkloadConfig cfg;
  cfg.arrivals_per_sec = 50.0;
  ShortFlowWorkload wl{sim, topo, sizes, cfg};
  sim.run_until(SimTime::seconds(20));
  // 1000 expected arrivals; Poisson sd ~ 32.
  EXPECT_NEAR(static_cast<double>(wl.flows_started()), 1000.0, 150.0);
}

TEST(ShortFlowWorkload, FlowsCompleteAndRecordFct) {
  sim::Simulation sim{5};
  net::Dumbbell topo{sim, small_topo(10)};
  FixedFlowSize sizes{8};
  ShortFlowWorkloadConfig cfg;
  cfg.arrivals_per_sec = 20.0;
  ShortFlowWorkload wl{sim, topo, sizes, cfg};
  sim.run_until(SimTime::seconds(10));
  wl.stop_arrivals();
  sim.run_until(SimTime::seconds(20));

  EXPECT_GT(wl.flows_completed(), 100u);
  EXPECT_EQ(wl.flows_completed(), wl.completions().count());
  EXPECT_EQ(wl.flows_active(), 0u);  // all drained after arrivals stopped
  for (const auto& rec : wl.completions().records()) {
    EXPECT_EQ(rec.size_packets, 8);
    EXPECT_GT(rec.completion_time(), SimTime::zero());
  }
}

TEST(ShortFlowWorkload, AfctIsAtLeastAFewRtts) {
  sim::Simulation sim{5};
  net::Dumbbell topo{sim, small_topo(10)};
  FixedFlowSize sizes{8};  // bursts 2,4,2 -> 3 round trips minimum
  ShortFlowWorkloadConfig cfg;
  cfg.arrivals_per_sec = 10.0;
  ShortFlowWorkload wl{sim, topo, sizes, cfg};
  sim.run_until(SimTime::seconds(15));
  const double afct = wl.completions().afct_seconds();
  // Min RTT = 2*(2+10+1) ms = 26 ms; 3 rounds ~ 78 ms minimum.
  EXPECT_GT(afct, 0.05);
  EXPECT_LT(afct, 1.0);
}

TEST(ShortFlowWorkload, LeafRangeRestriction) {
  sim::Simulation sim{5};
  net::Dumbbell topo{sim, small_topo(10)};
  FixedFlowSize sizes{4};
  ShortFlowWorkloadConfig cfg;
  cfg.arrivals_per_sec = 30.0;
  cfg.leaves = {6, 4};
  ShortFlowWorkload wl{sim, topo, sizes, cfg};
  sim.run_until(SimTime::seconds(5));
  // Hosts on leaves 0..5 must have seen no short-flow packets: their
  // receivers have no agents, so any stray delivery would count unclaimed.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(topo.receiver(i).unclaimed_packets(), 0u) << "leaf " << i;
  }
  EXPECT_GT(wl.flows_completed(), 0u);
}

TEST(ShortFlowWorkload, LeafRangePastTheTopologyThrows) {
  sim::Simulation sim{5};
  net::Dumbbell topo{sim, small_topo(4)};
  FixedFlowSize sizes{4};
  ShortFlowWorkloadConfig cfg;
  cfg.leaves = {6, 4};
  EXPECT_THROW((ShortFlowWorkload{sim, topo, sizes, cfg}), std::invalid_argument);
  cfg.leaves = {6};
  EXPECT_THROW((ShortFlowWorkload{sim, topo, sizes, cfg}), std::invalid_argument);
}

TEST(ShortFlowWorkload, EmptyLeafRangeThrows) {
  sim::Simulation sim{5};
  net::Dumbbell topo{sim, small_topo(4)};
  FixedFlowSize sizes{4};
  ShortFlowWorkloadConfig cfg;
  cfg.leaves = {4};
  EXPECT_THROW((ShortFlowWorkload{sim, topo, sizes, cfg}), std::invalid_argument);
  cfg.leaves = {1, 0};
  EXPECT_THROW((ShortFlowWorkload{sim, topo, sizes, cfg}), std::invalid_argument);
}

TEST(ShortFlowWorkload, ArrivalRateMustBePositiveAndFinite) {
  sim::Simulation sim{5};
  net::Dumbbell topo{sim, small_topo(4)};
  FixedFlowSize sizes{4};
  ShortFlowWorkloadConfig cfg;
  for (const double rate : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    cfg.arrivals_per_sec = rate;
    EXPECT_THROW((ShortFlowWorkload{sim, topo, sizes, cfg}), std::invalid_argument) << rate;
  }
}

TEST(LongFlowWorkload, NumFlowsSelectsTheLeadingLeaves) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(5)};
  LongFlowWorkloadConfig cfg;
  cfg.num_flows = 3;
  LongFlowWorkload wl{sim, topo, cfg};
  ASSERT_EQ(wl.num_flows(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(wl.source(i).flow(), static_cast<net::FlowId>(1 + i));
  sim.run_until(SimTime::seconds(8));
  for (int i = 3; i < 5; ++i) {
    EXPECT_EQ(topo.receiver(i).unclaimed_packets(), 0u) << "leaf " << i;
  }
  cfg.num_flows = 0;
  EXPECT_EQ((LongFlowWorkload{sim, topo, cfg}.num_flows()), 0);
  for (const int n : {6, -1}) {
    cfg.num_flows = n;
    EXPECT_THROW((LongFlowWorkload{sim, topo, cfg}), std::invalid_argument) << n;
  }
}

TEST(UdpSource, CbrSendsAtConfiguredRate) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(1)};
  UdpSourceConfig cfg;
  cfg.rate = core::BitsPerSec{1e6};
  cfg.packet_size = core::Bytes{1000};  // 125 packets/s
  UdpSink sink{topo.receiver(0), 77};
  UdpSource src{sim, topo.sender(0), topo.receiver(0).id(), 77, cfg};
  src.start(SimTime::zero());
  sim.run_until(SimTime::seconds(10));
  src.stop();
  EXPECT_NEAR(static_cast<double>(src.packets_sent()), 1250.0, 2.0);
  sim.run_until(SimTime::seconds(11));
  EXPECT_EQ(sink.packets_received(), src.packets_sent());
}

TEST(UdpSource, RateAndPacketSizeMustBePositiveAndFinite) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(1)};
  const auto make = [&](double rate_bps, std::int64_t bytes) {
    UdpSourceConfig cfg;
    cfg.rate = core::BitsPerSec{rate_bps};
    cfg.packet_size = core::Bytes{bytes};
    UdpSource src{sim, topo.sender(0), topo.receiver(0).id(), 77, cfg};
  };
  for (const double rate : {0.0, -1e6, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    EXPECT_THROW(make(rate, 1000), std::invalid_argument) << rate;
  }
  EXPECT_THROW(make(1e6, 0), std::invalid_argument);
  EXPECT_THROW(make(1e6, -1), std::invalid_argument);
  EXPECT_NO_THROW(make(1e6, 1000));
}

TEST(UdpSource, PoissonGapsPreserveMeanRate) {
  sim::Simulation sim{9};
  net::Dumbbell topo{sim, small_topo(1)};
  UdpSourceConfig cfg;
  cfg.rate = core::BitsPerSec{2e6};
  cfg.packet_size = core::Bytes{500};  // 500 packets/s
  cfg.poisson_gaps = true;
  UdpSink sink{topo.receiver(0), 77};
  UdpSource src{sim, topo.sender(0), topo.receiver(0).id(), 77, cfg};
  src.start(SimTime::zero());
  sim.run_until(SimTime::seconds(20));
  // 10000 expected, Poisson sd = 100.
  EXPECT_NEAR(static_cast<double>(src.packets_sent()), 10'000.0, 500.0);
}

TEST(UdpSource, StopHaltsTransmission) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo(1)};
  UdpSourceConfig cfg;
  cfg.rate = core::BitsPerSec{1e6};
  UdpSink sink{topo.receiver(0), 77};
  UdpSource src{sim, topo.sender(0), topo.receiver(0).id(), 77, cfg};
  src.start(SimTime::zero());
  sim.run_until(SimTime::seconds(1));
  src.stop();
  const auto sent = src.packets_sent();
  sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(src.packets_sent(), sent);
}

}  // namespace
}  // namespace rbs::traffic
