// Unit tests for Link: serialization timing, propagation, queueing, and
// observation hooks.
#include "core/units.hpp"
#include "net/link.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/drop_tail_queue.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {
namespace {

using namespace rbs::sim::literals;

/// Records every delivered packet with its arrival time.
class RecordingSink final : public PacketSink {
 public:
  explicit RecordingSink(sim::Simulation& sim) : sim_{sim} {}
  void receive(const Packet& p) override { arrivals_.push_back({sim_.now(), p}); }

  struct Arrival {
    sim::SimTime time;
    Packet packet;
  };
  std::vector<Arrival> arrivals_;

 private:
  sim::Simulation& sim_;
};

Packet make_packet(std::int64_t seq, std::int32_t bytes = 1000) {
  Packet p;
  p.flow = 1;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

class LinkTest : public ::testing::Test {
 protected:
  LinkTest()
      : sink_{sim_},
        link_{sim_, "l", Link::Config{core::BitsPerSec{1e6} /* 1 Mb/s */, 5_ms},
              std::make_unique<DropTailQueue>(4), sink_} {}

  sim::Simulation sim_{1};
  RecordingSink sink_;
  Link link_;
};

TEST_F(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  // 1000 bytes at 1 Mb/s = 8 ms serialization, +5 ms propagation = 13 ms.
  link_.receive(make_packet(0));
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 1u);
  EXPECT_EQ(sink_.arrivals_[0].time, 13_ms);
  EXPECT_EQ(sink_.arrivals_[0].packet.seq, 0);
}

TEST_F(LinkTest, BackToBackPacketsSpacedBySerializationTime) {
  link_.receive(make_packet(0));
  link_.receive(make_packet(1));
  link_.receive(make_packet(2));
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 3u);
  EXPECT_EQ(sink_.arrivals_[0].time, 13_ms);
  EXPECT_EQ(sink_.arrivals_[1].time, 21_ms);  // +8 ms
  EXPECT_EQ(sink_.arrivals_[2].time, 29_ms);
}

TEST_F(LinkTest, InServicePacketNotCountedInQueue) {
  link_.receive(make_packet(0));
  EXPECT_TRUE(link_.busy());
  EXPECT_EQ(link_.queue().size_packets(), 0);
  EXPECT_EQ(link_.occupancy_packets(), 1);
  link_.receive(make_packet(1));
  EXPECT_EQ(link_.queue().size_packets(), 1);
  EXPECT_EQ(link_.occupancy_packets(), 2);
}

TEST_F(LinkTest, OverflowDropsAndCountsViaHook) {
  std::vector<std::int64_t> dropped;
  link_.on_drop = [&](const Packet& p) { dropped.push_back(p.seq); };
  // 1 in service + 4 queued fit; the 6th and 7th drop.
  for (int i = 0; i < 7; ++i) link_.receive(make_packet(i));
  EXPECT_EQ(dropped, (std::vector<std::int64_t>{5, 6}));
  sim_.run();
  EXPECT_EQ(sink_.arrivals_.size(), 5u);
  EXPECT_EQ(link_.queue().stats().dropped_packets, 2u);
}

TEST_F(LinkTest, StatsAccumulateBitsAndBusyTime) {
  for (int i = 0; i < 3; ++i) link_.receive(make_packet(i, 500));
  sim_.run();
  EXPECT_EQ(link_.stats().packets_delivered, 3u);
  EXPECT_EQ(link_.stats().bits_delivered, 3u * 500 * 8);
  EXPECT_EQ(link_.stats().busy_time, 12_ms);  // 3 * 4 ms
}

TEST_F(LinkTest, ResetStatsZeroesCounters) {
  link_.receive(make_packet(0));
  sim_.run();
  link_.reset_stats();
  EXPECT_EQ(link_.stats().packets_delivered, 0u);
  EXPECT_EQ(link_.stats().bits_delivered, 0u);
  EXPECT_EQ(link_.queue().stats().enqueued_packets, 0u);
}

TEST_F(LinkTest, OnDeliveredHookFiresAtSerializationEnd) {
  sim::SimTime delivered_at;
  link_.on_delivered = [&](const Packet&) { delivered_at = sim_.now(); };
  link_.receive(make_packet(0));
  sim_.run();
  EXPECT_EQ(delivered_at, 8_ms);  // before propagation
}

TEST_F(LinkTest, LinkGoesIdleAfterDraining) {
  link_.receive(make_packet(0));
  sim_.run();
  EXPECT_FALSE(link_.busy());
  EXPECT_EQ(link_.occupancy_packets(), 0);
  // And accepts later work.
  link_.receive(make_packet(1));
  sim_.run();
  EXPECT_EQ(sink_.arrivals_.size(), 2u);
}

TEST(LinkTimingTest, HighRateSmallPacketTiming) {
  // 40-byte packet at 40 Gb/s = 8 ns, the paper's §1.3 figure.
  sim::Simulation sim{1};
  RecordingSink sink{sim};
  Link link{sim, "fast", Link::Config{core::BitsPerSec{40e9}, sim::SimTime::zero()},
            std::make_unique<DropTailQueue>(1), sink};
  Packet p = make_packet(0, 40);
  link.receive(p);
  sim.run();
  ASSERT_EQ(sink.arrivals_.size(), 1u);
  EXPECT_EQ(sink.arrivals_[0].time, sim::SimTime::nanoseconds(8));
}

TEST(LinkTimingTest, RateBoundIsSetByAMaximumSizePacket) {
  // 1500 bytes at 1 kb/s = 12 s: slow, but well inside the SimTime range.
  sim::Simulation sim{1};
  RecordingSink sink{sim};
  Link link{sim, "slow", Link::Config{core::BitsPerSec{1e3}, sim::SimTime::zero()},
            std::make_unique<DropTailQueue>(1), sink};
  link.receive(make_packet(0, 1500));
  sim.run();
  ASSERT_EQ(sink.arrivals_.size(), 1u);
  EXPECT_EQ(sink.arrivals_[0].time, 12_sec);
  // 65'535 bytes at 0.01 b/s take ~5e7 s, past the ~9.2e6 s SimTime range.
  EXPECT_THROW((Link{sim, "crawl", Link::Config{core::BitsPerSec{0.01}, sim::SimTime::zero()},
                     std::make_unique<DropTailQueue>(1), sink}),
               std::invalid_argument);
}

TEST(LinkConfigTest, NegativePropagationDelayThrows) {
  // The scheduler clamps a past time to now(), so a negative delay would
  // silently deliver with zero propagation.
  sim::Simulation sim{1};
  RecordingSink sink{sim};
  const Link::Config backwards{core::BitsPerSec{1e6}, sim::SimTime::milliseconds(-1)};
  EXPECT_THROW((Link{sim, "back", backwards, std::make_unique<DropTailQueue>(1), sink}),
               std::invalid_argument);
  DropTailQueue borrowed{1};
  EXPECT_THROW((Link{sim, "back", backwards, borrowed, sink}), std::invalid_argument);
  EXPECT_NO_THROW((Link{sim, "zero", Link::Config{core::BitsPerSec{1e6}, sim::SimTime::zero()},
                        borrowed, sink}));
}

TEST(LinkConfigTest, RateEdgeForAMaximumSizePacketIsPinned) {
  // The slowest accepted rate serializes a 65'535-byte packet just inside
  // the SimTime range. Both neighbours of the edge are pinned bit for bit,
  // as sim::transmission_time placed them.
  sim::Simulation sim{1};
  RecordingSink sink{sim};
  DropTailQueue queue{1};
  constexpr double kLargestRejected = 0x1.d1a77876b5ep-5;   // ~0.0568 b/s
  constexpr double kSmallestAccepted = 0x1.d1a77876b5e01p-5;
  static_assert(kSmallestAccepted > kLargestRejected);
  const auto build = [&](double bps) {
    Link link{sim, "edge", Link::Config{core::BitsPerSec{bps}, 1_ms}, queue, sink};
  };
  EXPECT_THROW(build(kLargestRejected), std::invalid_argument);
  EXPECT_NO_THROW(build(kSmallestAccepted));
  EXPECT_TRUE(sim::transmission_time(8LL * 65'535, kLargestRejected).is_infinite());
  EXPECT_FALSE(sim::transmission_time(8LL * 65'535, kSmallestAccepted).is_infinite());
}

TEST(LinkConfigTest, NullOwnedQueueThrows) {
  sim::Simulation sim{1};
  RecordingSink sink{sim};
  EXPECT_THROW((Link{sim, "noq", Link::Config{core::BitsPerSec{1e6}, 1_ms},
                     std::unique_ptr<Queue>{}, sink}),
               std::invalid_argument);
}

TEST(LinkConfigTest, BorrowedQueueBuffersLikeAnOwnedOne) {
  sim::Simulation sim{1};
  RecordingSink sink{sim};
  DropTailQueue queue{1};
  Link link{sim, "borrow", Link::Config{core::BitsPerSec{1e6}, 5_ms}, queue, sink};
  EXPECT_EQ(&link.queue(), &queue);
  for (int i = 0; i < 3; ++i) link.receive(make_packet(i));  // one in service, one queued
  EXPECT_EQ(queue.size_packets(), 1);
  EXPECT_EQ(queue.stats().dropped_packets, 1u);
  sim.run();
  ASSERT_EQ(sink.arrivals_.size(), 2u);
  EXPECT_EQ(sink.arrivals_[1].time, 21_ms);  // 2 x 8 ms serialization + 5 ms
}

TEST_F(LinkTest, BrownoutPastTheTimeRangeStallsInsteadOfWrapping) {
  // The serialization time saturates; scheduling its end at now + infinity
  // would wrap to the past (for any now > 0) and deliver the packet at once.
  sim_.run_until(1_ms);
  link_.fault_set_rate_factor(1e-300);
  link_.receive(make_packet(0));
  sim_.run_until(1_sec);
  EXPECT_TRUE(sink_.arrivals_.empty());
  EXPECT_EQ(link_.stats().busy_time, sim::SimTime::zero());
  // Going down drops the stalled packet; at the normal rate service resumes.
  link_.fault_down();
  link_.fault_set_rate_factor(1.0);
  link_.fault_up();
  link_.receive(make_packet(1));
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 1u);
  EXPECT_EQ(sink_.arrivals_[0].packet.seq, 1);
  EXPECT_EQ(sink_.arrivals_[0].time, 1_sec + 13_ms);
}

}  // namespace
}  // namespace rbs::net
