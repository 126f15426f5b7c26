// Unit tests for the drop-tail and RED queue disciplines and the packet
// ring they store packets in.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/units.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/drr_queue.hpp"
#include "net/packet_ring.hpp"
#include "net/red_queue.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {
namespace {

Packet make_packet(std::int64_t seq, std::int32_t bytes = 1000) {
  Packet p;
  p.flow = 1;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

std::vector<std::int64_t> seqs(const PacketRing& ring) {
  std::vector<std::int64_t> out;
  for (const Packet& p : ring) out.push_back(p.seq);
  return out;
}

TEST(PacketRing, AllocatesNothingUntilTheFirstPush) {
  PacketRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_TRUE(ring.begin() == ring.end());
  ring.push_back(make_packet(0));
  EXPECT_EQ(ring.capacity(), PacketRing::kInitialCapacity);
}

TEST(PacketRing, KeepsFifoOrderWhenGrowingWhileWrapped) {
  PacketRing ring;
  std::int64_t next_in = 0;
  std::int64_t next_out = 0;
  // Fill to capacity, then move the head past the middle so the contents
  // wrap around the end of the storage before the ring has to grow.
  for (std::size_t i = 0; i < PacketRing::kInitialCapacity; ++i) ring.push_back(make_packet(next_in++));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.front().seq, next_out++);
    ring.pop_front();
  }
  for (int i = 0; i < 5; ++i) ring.push_back(make_packet(next_in++));
  ASSERT_EQ(ring.capacity(), PacketRing::kInitialCapacity);  // full and wrapped
  for (int i = 0; i < 40; ++i) ring.push_back(make_packet(next_in++));  // grows twice
  EXPECT_EQ(ring.capacity(), 8 * PacketRing::kInitialCapacity);
  std::vector<std::int64_t> want;
  for (std::int64_t s = next_out; s < next_in; ++s) want.push_back(s);
  EXPECT_EQ(seqs(ring), want);
  EXPECT_EQ(ring.size(), want.size());
  while (!ring.empty()) {
    EXPECT_EQ(ring.front().seq, next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(PacketRing, BackAndPopBackTakeTheNewestPacket) {
  PacketRing ring;
  for (int i = 0; i < 6; ++i) ring.push_back(make_packet(i));
  ring.pop_front();
  ring.pop_front();
  for (int i = 6; i < 10; ++i) ring.push_back(make_packet(i));  // wraps
  EXPECT_EQ(ring.back().seq, 9);
  ring.pop_back();
  EXPECT_EQ(ring.back().seq, 8);
  ring.pop_back();
  EXPECT_EQ(seqs(ring), (std::vector<std::int64_t>{2, 3, 4, 5, 6, 7}));
  ring.push_back(make_packet(42));
  EXPECT_EQ(ring.back().seq, 42);
  EXPECT_EQ(ring.front().seq, 2);
  while (ring.size() > 1) ring.pop_back();
  EXPECT_EQ(ring.front().seq, 2);
  EXPECT_EQ(ring.back().seq, 2);
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q{10};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.enqueue(make_packet(i)));
  for (int i = 0; i < 5; ++i) {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q{3};
  EXPECT_TRUE(q.enqueue(make_packet(0)));
  EXPECT_TRUE(q.enqueue(make_packet(1)));
  EXPECT_TRUE(q.enqueue(make_packet(2)));
  EXPECT_FALSE(q.enqueue(make_packet(3)));
  EXPECT_EQ(q.size_packets(), 3);
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.stats().enqueued_packets, 3u);
}

TEST(DropTailQueue, ZeroLimitDropsEverything) {
  DropTailQueue q{0};
  EXPECT_FALSE(q.enqueue(make_packet(0)));
  EXPECT_EQ(q.size_packets(), 0);
  EXPECT_EQ(q.stats().dropped_packets, 1u);
}

TEST(DropTailQueue, ByteAccounting) {
  DropTailQueue q{10};
  q.enqueue(make_packet(0, 100));
  q.enqueue(make_packet(1, 250));
  EXPECT_EQ(q.size_bytes(), 350);
  q.dequeue();
  EXPECT_EQ(q.size_bytes(), 250);
  EXPECT_EQ(q.stats().enqueued_bytes, 350u);
}

TEST(DropTailQueue, DropFractionComputation) {
  DropTailQueue q{2};
  q.enqueue(make_packet(0));
  q.enqueue(make_packet(1));
  q.enqueue(make_packet(2));  // dropped
  q.enqueue(make_packet(3));  // dropped
  EXPECT_DOUBLE_EQ(q.stats().drop_fraction(), 0.5);
}

TEST(DropTailQueue, ShrinkingLimitKeepsQueuedPackets) {
  DropTailQueue q{5};
  for (int i = 0; i < 5; ++i) q.enqueue(make_packet(i));
  q.set_limit_packets(2);
  EXPECT_EQ(q.size_packets(), 5);          // existing packets drain naturally
  EXPECT_FALSE(q.enqueue(make_packet(9))); // but no new ones fit
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.dequeue().has_value());
  EXPECT_TRUE(q.enqueue(make_packet(10)));
}

TEST(DropTailByteLimit, EnforcesByteCeiling) {
  DropTailQueue q{100, /*limit_bytes=*/core::Bytes{2500}};
  Packet p;
  p.size_bytes = 1000;
  EXPECT_TRUE(q.enqueue(p));
  EXPECT_TRUE(q.enqueue(p));
  EXPECT_FALSE(q.enqueue(p));  // 3000 > 2500
  p.size_bytes = 400;
  EXPECT_TRUE(q.enqueue(p));  // 2400 fits
  EXPECT_EQ(q.size_bytes(), 2400);
  EXPECT_EQ(q.stats().dropped_packets, 1u);
}

TEST(DropTailByteLimit, ZeroMeansUnlimited) {
  DropTailQueue q{3};
  Packet p;
  p.size_bytes = 1'000'000;
  EXPECT_TRUE(q.enqueue(p));
  EXPECT_TRUE(q.enqueue(p));
  EXPECT_TRUE(q.enqueue(p));
  EXPECT_FALSE(q.enqueue(p));  // packet limit still applies
}

TEST(QueueLimitValidation, NegativeLimitsAreRejectedEverywhere) {
  EXPECT_THROW(net::DropTailQueue(-1), std::invalid_argument);
  EXPECT_THROW(net::DropTailQueue(10, core::Bytes{-1}), std::invalid_argument);

  DropTailQueue q{10};
  EXPECT_THROW(q.set_limit_packets(-1), std::invalid_argument);
  EXPECT_THROW(q.set_limit_bytes(core::Bytes{-1}), std::invalid_argument);
  EXPECT_EQ(q.limit_packets(), 10);  // failed setters leave the queue unchanged

  sim::Simulation sim{1};
  EXPECT_THROW(net::RedQueue(sim, 0), std::invalid_argument);
  EXPECT_THROW(net::RedQueue(sim, -5), std::invalid_argument);
  RedQueue red{sim, 10};
  EXPECT_THROW(red.set_limit_packets(0), std::invalid_argument);
  EXPECT_EQ(red.limit_packets(), 10);

  EXPECT_THROW(net::DrrQueue(-1), std::invalid_argument);
  EXPECT_THROW(net::DrrQueue(10, core::Bytes{0}), std::invalid_argument);
  DrrQueue drr{10};
  EXPECT_THROW(drr.set_limit_packets(-1), std::invalid_argument);
  EXPECT_EQ(drr.limit_packets(), 10);
}

TEST(QueueLimitValidation, LoweringRedLimitKeepsResidentPackets) {
  sim::Simulation sim{1};
  RedQueue q{sim, 10};
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.enqueue(make_packet(i)));
  q.set_limit_packets(4);
  EXPECT_EQ(q.size_packets(), 8);          // no retroactive drop
  EXPECT_FALSE(q.enqueue(make_packet(9))); // but arrivals are rejected
  while (q.size_packets() > 2) q.dequeue();
  EXPECT_TRUE(q.enqueue(make_packet(10)));
}

TEST(DropTailQueue, ResetStatsClearsCounters) {
  DropTailQueue q{1};
  q.enqueue(make_packet(0));
  q.enqueue(make_packet(1));
  q.reset_stats();
  EXPECT_EQ(q.stats().dropped_packets, 0u);
  EXPECT_EQ(q.stats().enqueued_packets, 0u);
  EXPECT_EQ(q.size_packets(), 1);  // contents untouched
}

class RedQueueTest : public ::testing::Test {
 protected:
  sim::Simulation sim_{123};
};

TEST_F(RedQueueTest, NoEarlyDropsBelowMinThreshold) {
  RedConfig cfg;
  cfg.min_threshold = 5;
  cfg.max_threshold = 15;
  RedQueue q{sim_, 20, cfg};
  // Keep instantaneous (and thus average) queue below min_th.
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(q.enqueue(make_packet(round)));
    q.dequeue();
  }
  EXPECT_EQ(q.early_drops(), 0u);
}

TEST_F(RedQueueTest, ForcedDropAtHardLimit) {
  RedQueue q{sim_, 4, RedConfig{}};
  int accepted = 0;
  for (int i = 0; i < 10; ++i) accepted += q.enqueue(make_packet(i)) ? 1 : 0;
  EXPECT_LE(accepted, 4);
  EXPECT_GE(q.stats().dropped_packets, 6u);
}

TEST_F(RedQueueTest, EarlyDropsWhenAverageHigh) {
  RedConfig cfg;
  cfg.min_threshold = 2;
  cfg.max_threshold = 6;
  cfg.max_probability = 0.5;
  cfg.weight = 0.5;  // fast-moving average for the test
  RedQueue q{sim_, 100, cfg};
  // Hold occupancy around 8 (> max_th): gentle region, heavy dropping.
  std::uint64_t offered = 0;
  for (int i = 0; i < 2000; ++i) {
    q.enqueue(make_packet(i));
    ++offered;
    if (q.size_packets() > 8) q.dequeue();
  }
  EXPECT_GT(q.early_drops(), offered / 10);
  EXPECT_GT(q.average_queue(), 2.0);
}

TEST_F(RedQueueTest, AverageTracksOccupancy) {
  RedConfig cfg;
  cfg.weight = 0.25;
  RedQueue q{sim_, 50, cfg};
  for (int i = 0; i < 100; ++i) q.enqueue(make_packet(i));
  // Occupancy pinned at the accepted level; average should approach it.
  const double occupancy = static_cast<double>(q.size_packets());
  EXPECT_GT(occupancy, 0);
  EXPECT_NEAR(q.average_queue(), occupancy, occupancy * 0.5);
}

TEST_F(RedQueueTest, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation sim{seed};
    RedConfig cfg;
    cfg.min_threshold = 2;
    cfg.max_threshold = 8;
    cfg.weight = 0.2;
    RedQueue q{sim, 16, cfg};
    std::uint64_t drops = 0;
    for (int i = 0; i < 5000; ++i) {
      if (!q.enqueue(make_packet(i))) ++drops;
      if (i % 2 == 0) q.dequeue();
    }
    return drops;
  };
  EXPECT_EQ(run(7), run(7));
  // (different seeds usually differ, but that is not guaranteed per-case)
}

TEST_F(RedQueueTest, DefaultThresholdsDeriveFromLimit) {
  RedQueue q{sim_, 100, RedConfig{}};
  // min_th = limit/4 = 25: filling to 20 and draining should not early-drop.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(q.enqueue(make_packet(i)));
  while (q.dequeue().has_value()) {
  }
  EXPECT_EQ(q.early_drops(), 0u);
}

}  // namespace
}  // namespace rbs::net
