// Tests for the dumbbell topology builder: wiring, delays, and end-to-end
// packet delivery in both directions.
#include "net/dumbbell.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/red_queue.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {
namespace {

using namespace rbs::sim::literals;

class EchoAgent final : public Agent {
 public:
  explicit EchoAgent(std::vector<std::int64_t>& log) : log_{log} {}
  void on_packet(const Packet& p) override { log_.push_back(p.seq); }

 private:
  std::vector<std::int64_t>& log_;
};

TEST(Dumbbell, RttIsTwiceSumOfOneWayDelays) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 2;
  cfg.bottleneck_delay = 10_ms;
  cfg.receiver_delay = 1_ms;
  cfg.access_delays = {5_ms, 25_ms};
  Dumbbell topo{sim, cfg};

  EXPECT_EQ(topo.rtt(0), 2 * (5_ms + 10_ms + 1_ms));
  EXPECT_EQ(topo.rtt(1), 2 * (25_ms + 10_ms + 1_ms));
  EXPECT_EQ(topo.mean_rtt(), 2 * (15_ms + 10_ms + 1_ms));
}

TEST(Dumbbell, RandomDelaysFallInConfiguredRange) {
  sim::Simulation sim{7};
  DumbbellConfig cfg;
  cfg.num_leaves = 50;
  cfg.access_delay_min = 5_ms;
  cfg.access_delay_max = 35_ms;
  cfg.bottleneck_delay = 10_ms;
  cfg.receiver_delay = 1_ms;
  Dumbbell topo{sim, cfg};
  for (int i = 0; i < 50; ++i) {
    const auto rtt = topo.rtt(i);
    EXPECT_GE(rtt, 2 * (5_ms + 11_ms));
    EXPECT_LE(rtt, 2 * (35_ms + 11_ms));
  }
}

TEST(Dumbbell, BdpMatchesHandComputation) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 1;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.bottleneck_delay = 10_ms;
  cfg.receiver_delay = 1_ms;
  cfg.access_delays = {35_ms};
  Dumbbell topo{sim, cfg};
  // RTT = 92 ms; 10 Mb/s * 0.092 s / 8000 bits = 115 packets.
  EXPECT_NEAR(topo.bdp_packets(core::Bytes{1000}), 115.0, 0.01);
}

TEST(Dumbbell, ForwardPathDeliversToReceiver) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 2;
  cfg.access_delays = {5_ms, 6_ms};
  Dumbbell topo{sim, cfg};

  std::vector<std::int64_t> log0, log1;
  EchoAgent agent0{log0}, agent1{log1};
  topo.receiver(0).register_agent(1, agent0);
  topo.receiver(1).register_agent(2, agent1);

  Packet p;
  p.flow = 1;
  p.src = topo.sender(0).id();
  p.dst = topo.receiver(0).id();
  p.seq = 42;
  p.size_bytes = 100;
  topo.sender(0).send(p);

  p.flow = 2;
  p.dst = topo.receiver(1).id();
  p.seq = 43;
  topo.sender(1).send(p);

  sim.run();
  EXPECT_EQ(log0, (std::vector<std::int64_t>{42}));
  EXPECT_EQ(log1, (std::vector<std::int64_t>{43}));
}

TEST(Dumbbell, ReversePathDeliversToSender) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 1;
  cfg.access_delays = {5_ms};
  Dumbbell topo{sim, cfg};

  std::vector<std::int64_t> log;
  EchoAgent agent{log};
  topo.sender(0).register_agent(1, agent);

  Packet p;
  p.flow = 1;
  p.src = topo.receiver(0).id();
  p.dst = topo.sender(0).id();
  p.seq = 7;
  p.size_bytes = 40;
  topo.receiver(0).send(p);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::int64_t>{7}));
}

TEST(Dumbbell, ForwardTraversalTimeMatchesPropagationPlusSerialization) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 1;
  cfg.bottleneck_rate = core::BitsPerSec{1e6};
  cfg.access_rate = core::BitsPerSec{1e6};
  cfg.bottleneck_delay = 10_ms;
  cfg.receiver_delay = 1_ms;
  cfg.access_delays = {5_ms};
  Dumbbell topo{sim, cfg};

  std::vector<std::int64_t> log;
  EchoAgent agent{log};
  topo.receiver(0).register_agent(1, agent);
  sim::SimTime arrival;
  // Wrap: record when the packet lands by sampling after run.
  Packet p;
  p.flow = 1;
  p.src = topo.sender(0).id();
  p.dst = topo.receiver(0).id();
  p.size_bytes = 1000;  // 8 ms at 1 Mb/s
  topo.sender(0).send(p);
  sim.run();
  arrival = sim.now();
  // Three hops serialize (8 ms each) and propagate (5 + 10 + 1 ms).
  EXPECT_EQ(arrival, 3 * 8_ms + 16_ms);
  EXPECT_EQ(log.size(), 1u);
}

TEST(Dumbbell, BottleneckBufferSizeIsConfigured) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 1;
  cfg.buffer_packets = 37;
  cfg.access_delays = {5_ms};
  Dumbbell topo{sim, cfg};
  EXPECT_EQ(topo.bottleneck().queue().limit_packets(), 37);
}

TEST(Dumbbell, RedDisciplineInstallsRedQueue) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 1;
  cfg.buffer_packets = 64;
  cfg.discipline = QueueDiscipline::kRed;
  cfg.access_delays = {5_ms};
  Dumbbell topo{sim, cfg};
  EXPECT_NE(dynamic_cast<RedQueue*>(&topo.bottleneck().queue()), nullptr);
}

TEST(Dumbbell, FewerThanOneLeafThrows) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 0;
  EXPECT_THROW((Dumbbell{sim, cfg}), std::invalid_argument);
  cfg.num_leaves = -3;
  EXPECT_THROW((Dumbbell{sim, cfg}), std::invalid_argument);
}

TEST(Dumbbell, AccessDelaysMustHaveOnePerLeaf) {
  // A short list used to be read past its end in release builds.
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 3;
  cfg.access_delays = {5_ms, 6_ms};
  EXPECT_THROW((Dumbbell{sim, cfg}), std::invalid_argument);
  cfg.access_delays = {5_ms, 6_ms, 7_ms, 8_ms};
  EXPECT_THROW((Dumbbell{sim, cfg}), std::invalid_argument);
}

TEST(Dumbbell, InvertedAccessDelayRangeThrows) {
  // It used to give every leaf the minimum.
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 2;
  cfg.access_delay_min = 20_ms;
  cfg.access_delay_max = 10_ms;
  EXPECT_THROW((Dumbbell{sim, cfg}), std::invalid_argument);
  // The range is not drawn from when explicit delays are given.
  cfg.access_delays = {5_ms, 6_ms};
  EXPECT_NO_THROW((Dumbbell{sim, cfg}));
}

TEST(Dumbbell, NegativeDelayThrows) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 1;
  cfg.access_delays = {sim::SimTime::milliseconds(-5)};
  EXPECT_THROW((Dumbbell{sim, cfg}), std::invalid_argument);
  cfg.access_delays.clear();
  cfg.receiver_delay = sim::SimTime::milliseconds(-1);
  EXPECT_THROW((Dumbbell{sim, cfg}), std::invalid_argument);
}

TEST(Dumbbell, LeafOutOfRangeThrows) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 2;
  Dumbbell topo{sim, cfg};
  EXPECT_NO_THROW((void)topo.receiver(1));
  EXPECT_THROW((void)topo.sender(2), std::out_of_range);
  EXPECT_THROW((void)topo.receiver(2), std::out_of_range);
  EXPECT_THROW((void)topo.sender(-1), std::out_of_range);
  EXPECT_THROW((void)topo.receiver(-1), std::out_of_range);
}

TEST(Dumbbell, LinksAndNodeIdsFollowConstructionOrder) {
  sim::Simulation sim{1};
  DumbbellConfig cfg;
  cfg.num_leaves = 2;
  Dumbbell topo{sim, cfg};
  std::vector<std::string> names;
  for (const Link& link : topo.links()) names.push_back(link.name());
  EXPECT_EQ(names, (std::vector<std::string>{"bottleneck_fwd", "bottleneck_rev", "acc_up_0",
                                             "acc_down_0", "rcv_up_0", "rcv_down_0",
                                             "acc_up_1", "acc_down_1", "rcv_up_1",
                                             "rcv_down_1"}));
  EXPECT_EQ(&topo.links()[0], &topo.bottleneck());
  EXPECT_EQ(&topo.links()[1], &topo.reverse_bottleneck());
  for (const Link& link : topo.links()) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&link) % 64, 0u) << link.name();
  }
  EXPECT_EQ(topo.sender(0).id(), 2u);
  EXPECT_EQ(topo.receiver(0).id(), 3u);
  EXPECT_EQ(topo.sender(1).id(), 4u);
  EXPECT_EQ(topo.receiver(1).name(), "receiver_1");
}

TEST(Dumbbell, DistinctSeedsGiveDistinctDelaySpreads) {
  DumbbellConfig cfg;
  cfg.num_leaves = 10;
  sim::Simulation sim_a{1}, sim_b{2};
  Dumbbell a{sim_a, cfg}, b{sim_b, cfg};
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.rtt(i) != b.rtt(i)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace rbs::net
