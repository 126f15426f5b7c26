// Tests for the parking-lot (multi-bottleneck) topology.
#include "core/units.hpp"
#include "net/parking_lot.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulation.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"

namespace rbs::net {
namespace {

using namespace rbs::sim::literals;
using sim::SimTime;

ParkingLotConfig small_lot() {
  ParkingLotConfig cfg;
  cfg.num_segments = 3;
  cfg.segment_rate = core::BitsPerSec{10e6};
  cfg.num_e2e_leaves = 2;
  cfg.num_local_leaves_per_segment = 2;
  return cfg;
}

class SeqLog final : public Agent {
 public:
  void on_packet(const Packet& p) override { seqs.push_back(p.seq); }
  std::vector<std::int64_t> seqs;
};

TEST(ParkingLot, EndToEndPathTraversesAllSegments) {
  sim::Simulation sim{1};
  ParkingLot lot{sim, small_lot()};

  SeqLog log;
  lot.e2e_receiver(0).register_agent(1, log);
  Packet p;
  p.flow = 1;
  p.src = lot.e2e_sender(0).id();
  p.dst = lot.e2e_receiver(0).id();
  p.seq = 5;
  p.size_bytes = 100;
  lot.e2e_sender(0).send(p);
  sim.run();

  ASSERT_EQ(log.seqs, (std::vector<std::int64_t>{5}));
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(lot.segment(s).stats().packets_delivered, 1u) << "segment " << s;
  }
}

TEST(ParkingLot, LocalTrafficUsesOnlyItsSegment) {
  sim::Simulation sim{1};
  ParkingLot lot{sim, small_lot()};

  SeqLog log;
  lot.local_receiver(1, 0).register_agent(2, log);
  Packet p;
  p.flow = 2;
  p.src = lot.local_sender(1, 0).id();
  p.dst = lot.local_receiver(1, 0).id();
  p.seq = 9;
  p.size_bytes = 100;
  lot.local_sender(1, 0).send(p);
  sim.run();

  ASSERT_EQ(log.seqs.size(), 1u);
  EXPECT_EQ(lot.segment(0).stats().packets_delivered, 0u);
  EXPECT_EQ(lot.segment(1).stats().packets_delivered, 1u);
  EXPECT_EQ(lot.segment(2).stats().packets_delivered, 0u);
}

TEST(ParkingLot, ReversePathDeliversAcksUpstream) {
  sim::Simulation sim{1};
  ParkingLot lot{sim, small_lot()};

  SeqLog log;
  lot.e2e_sender(1).register_agent(3, log);
  Packet ack;
  ack.flow = 3;
  ack.kind = PacketKind::kTcpAck;
  ack.src = lot.e2e_receiver(1).id();
  ack.dst = lot.e2e_sender(1).id();
  ack.seq = 0;
  ack.ack = 7;
  ack.size_bytes = 40;
  lot.e2e_receiver(1).send(ack);
  sim.run();
  EXPECT_EQ(log.seqs.size(), 1u);
}

TEST(ParkingLot, RttIncludesAllSegments) {
  sim::Simulation sim{1};
  auto cfg = small_lot();
  cfg.access_delay_min = cfg.access_delay_max = 4_ms;
  cfg.segment_delay = 5_ms;
  ParkingLot lot{sim, cfg};
  // one-way = 4 + 3*5 + 1 = 20 ms; RTT = 40 ms.
  EXPECT_EQ(lot.e2e_rtt(0), 40_ms);
}

TEST(ParkingLot, FewerThanOneSegmentThrows) {
  sim::Simulation sim{1};
  auto cfg = small_lot();
  cfg.num_segments = 0;
  EXPECT_THROW((ParkingLot{sim, cfg}), std::invalid_argument);
}

TEST(ParkingLot, NegativeLeafCountsThrow) {
  sim::Simulation sim{1};
  auto cfg = small_lot();
  cfg.num_e2e_leaves = -1;
  EXPECT_THROW((ParkingLot{sim, cfg}), std::invalid_argument);
  cfg = small_lot();
  cfg.num_local_leaves_per_segment = -1;
  EXPECT_THROW((ParkingLot{sim, cfg}), std::invalid_argument);
  cfg.num_local_leaves_per_segment = 0;  // zero leaves is a valid, empty lot
  EXPECT_NO_THROW((ParkingLot{sim, cfg}));
}

TEST(ParkingLot, InvertedAccessDelayRangeThrows) {
  sim::Simulation sim{1};
  auto cfg = small_lot();
  cfg.access_delay_min = 20_ms;
  cfg.access_delay_max = 10_ms;
  EXPECT_THROW((ParkingLot{sim, cfg}), std::invalid_argument);
}

TEST(ParkingLot, IndexOutOfRangeThrows) {
  sim::Simulation sim{1};
  ParkingLot lot{sim, small_lot()};
  EXPECT_THROW((void)lot.e2e_sender(2), std::out_of_range);
  EXPECT_THROW((void)lot.e2e_receiver(-1), std::out_of_range);
  EXPECT_THROW((void)lot.local_sender(3, 0), std::out_of_range);
  EXPECT_THROW((void)lot.local_receiver(0, 2), std::out_of_range);
  EXPECT_THROW((void)lot.segment(3), std::out_of_range);
  EXPECT_EQ(lot.local_receiver(2, 1).name(), "loc_rcv_2_1");
  EXPECT_EQ(lot.segment(2).name(), "seg_fwd_2");
}

TEST(ParkingLot, TcpFlowCompletesAcrossTheChain) {
  sim::Simulation sim{1};
  ParkingLot lot{sim, small_lot()};
  tcp::TcpSink sink{sim, lot.e2e_receiver(0), 10};
  tcp::TcpSource src{sim, lot.e2e_sender(0), lot.e2e_receiver(0).id(), 10, tcp::TcpConfig{},
                     500};
  src.start(SimTime::zero());
  sim.run();
  EXPECT_TRUE(src.finished());
  EXPECT_EQ(sink.next_expected(), 500);
}

TEST(ParkingLot, NoUnroutablePacketsUnderCrossTraffic) {
  sim::Simulation sim{2};
  ParkingLot lot{sim, small_lot()};

  // One e2e flow + one local flow per segment, run briefly.
  std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
  std::vector<std::unique_ptr<tcp::TcpSource>> sources;
  net::FlowId flow = 100;
  sinks.push_back(std::make_unique<tcp::TcpSink>(sim, lot.e2e_receiver(0), flow));
  sources.push_back(std::make_unique<tcp::TcpSource>(
      sim, lot.e2e_sender(0), lot.e2e_receiver(0).id(), flow, tcp::TcpConfig{}, 300));
  sources.back()->start(SimTime::zero());
  ++flow;
  for (int s = 0; s < 3; ++s) {
    sinks.push_back(std::make_unique<tcp::TcpSink>(sim, lot.local_receiver(s, 0), flow));
    sources.push_back(std::make_unique<tcp::TcpSource>(
        sim, lot.local_sender(s, 0), lot.local_receiver(s, 0).id(), flow, tcp::TcpConfig{},
        300));
    sources.back()->start(SimTime::zero());
    ++flow;
  }
  sim.run_until(SimTime::seconds(20));
  for (const auto& src : sources) EXPECT_TRUE(src->finished());
}

}  // namespace
}  // namespace rbs::net
