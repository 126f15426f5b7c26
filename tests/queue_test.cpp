// Unit tests for the drop-tail and RED queue disciplines, the accounting
// all disciplines share, and the packet ring they store packets in.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
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

TEST(QueueLimitValidation, NegativeLimitsAreRejectedEverywhere) {
  EXPECT_THROW(net::DropTailQueue(-1), std::invalid_argument);

  sim::Simulation sim{1};
  EXPECT_THROW(net::RedQueue(sim, 0), std::invalid_argument);
  EXPECT_THROW(net::RedQueue(sim, -5), std::invalid_argument);

  EXPECT_THROW(net::DrrQueue(-1), std::invalid_argument);
  EXPECT_THROW(net::DrrQueue(10, core::Bytes{0}), std::invalid_argument);
}

// Random arrivals and departures against every discipline, with a counter
// reset halfway through: after every step the conservation law holds
// against the public counters and the queue's own audit is clean. RED runs
// with ECN marking and low thresholds, and a share of the arrivals are UDP,
// which RED drops where it marks TCP data, so early drops and marks both
// occur. DRR's five flows overflow the pool, so longest-queue eviction runs.
TEST(QueueAccounting, SeededChurnKeepsEveryDisciplineConserved) {
  sim::Simulation sim{42};
  RedConfig red_cfg;
  red_cfg.min_threshold = 2;
  red_cfg.max_threshold = 5;
  red_cfg.weight = 0.2;
  red_cfg.ecn_marking = true;
  DropTailQueue droptail{8};
  RedQueue red{sim, 8, red_cfg};
  DrrQueue drr{8};
  const std::vector<std::pair<const char*, Queue*>> queues{
      {"droptail", &droptail}, {"red", &red}, {"drr", &drr}};

  constexpr int kSteps = 2000;
  for (auto& [name, q] : queues) {
    SCOPED_TRACE(name);
    sim::Rng rng{7};
    std::uint64_t carried_packets = 0;
    std::uint64_t carried_bytes = 0;
    for (int step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) {
        ASSERT_GT(q->size_packets(), 0);  // the reset must carry residents
        q->reset_stats();
        carried_packets = static_cast<std::uint64_t>(q->size_packets());
        carried_bytes = static_cast<std::uint64_t>(q->size_bytes());
      }
      if (rng.bernoulli(0.6)) {
        Packet p = make_packet(step, static_cast<std::int32_t>(rng.uniform_int(40, 1500)));
        p.flow = static_cast<FlowId>(rng.uniform_int(1, 5));
        if (rng.bernoulli(0.3)) p.kind = PacketKind::kUdp;
        q->enqueue(p);
      } else {
        q->dequeue();
      }
      const QueueStats& st = q->stats();
      ASSERT_EQ(st.enqueued_packets + carried_packets,
                st.dequeued_packets + st.evicted_packets +
                    static_cast<std::uint64_t>(q->size_packets()))
          << "step " << step;
      ASSERT_EQ(st.enqueued_bytes + carried_bytes,
                st.dequeued_bytes + st.evicted_bytes + static_cast<std::uint64_t>(q->size_bytes()))
          << "step " << step;
      ASSERT_LE(q->size_packets(), q->limit_packets()) << "step " << step;
      check::AuditReport report;
      q->audit(report);
      ASSERT_TRUE(report.clean()) << "step " << step << ": " << report.messages()[0];
    }
    EXPECT_GT(q->stats().dropped_packets, 0u);
  }
  EXPECT_GT(red.early_drops(), 0u);
  EXPECT_GT(red.marked_packets(), 0u);
  EXPECT_GT(drr.stats().evicted_packets, 0u);
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
