// Unit tests for TCP Reno/NewReno sender behavior under scripted losses.
//
// The harness wires a sender host and a receiver host through "pipes" with a
// fixed one-way delay and no bandwidth limit, so every dynamic comes from the
// protocol, not from queueing. Losses are injected per (sequence, occurrence)
// so each scenario is exact and deterministic.
#include "tcp/tcp_source.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/node.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_sink.hpp"

namespace rbs::tcp {
namespace {

using namespace rbs::sim::literals;
using sim::SimTime;

/// Delivers packets to a destination after a fixed delay, optionally dropping
/// scripted (seq, occurrence) data packets. Occurrences are 1-based: {10, 1}
/// drops the first transmission of segment 10.
class ScriptedPipe final : public net::PacketSink {
 public:
  ScriptedPipe(sim::Simulation& sim, net::PacketSink& dst, SimTime delay)
      : sim_{sim}, dst_{dst}, delay_{delay} {}

  void drop(std::int64_t seq, int occurrence) { drops_.insert({seq, occurrence}); }

  /// Drops every transmission of `seq` among the first `n` attempts.
  void drop_first_n(std::int64_t seq, int n) {
    for (int i = 1; i <= n; ++i) drop(seq, i);
  }

  void receive(const net::Packet& p) override {
    if (p.kind == net::PacketKind::kTcpData) {
      const int occurrence = ++seen_[p.seq];
      ++data_forwarded_or_dropped_;
      max_in_flight_estimate_ = std::max(max_in_flight_estimate_, p.seq);
      if (drops_.contains({p.seq, occurrence})) {
        ++dropped_;
        return;
      }
    }
    sim_.after(delay_, [this, p] { dst_.receive(p); });
  }

  int dropped() const { return dropped_; }
  std::int64_t packets_seen() const { return data_forwarded_or_dropped_; }

 private:
  sim::Simulation& sim_;
  net::PacketSink& dst_;
  SimTime delay_;
  std::set<std::pair<std::int64_t, int>> drops_;
  std::map<std::int64_t, int> seen_;
  int dropped_{0};
  std::int64_t data_forwarded_or_dropped_{0};
  std::int64_t max_in_flight_estimate_{0};
};

/// One sender + one receiver joined by scripted pipes; RTT = 2 * kDelay.
class TcpSourceTest : public ::testing::Test {
 protected:
  static constexpr auto kDelay = 50_ms;  // RTT = 100 ms

  TcpSourceTest()
      : sender_host_{sim_, 1, "snd"},
        receiver_host_{sim_, 2, "rcv"},
        data_pipe_{sim_, receiver_host_, kDelay},
        ack_pipe_{sim_, sender_host_, kDelay} {
    sender_host_.attach_uplink(data_pipe_);
    receiver_host_.attach_uplink(ack_pipe_);
  }

  /// Creates the source/sink pair for a flow of `packets` (-1 = infinite).
  void make_flow(std::int64_t packets, TcpConfig cfg = {}) {
    sink_ = std::make_unique<TcpSink>(sim_, receiver_host_, 1);
    source_ = std::make_unique<TcpSource>(sim_, sender_host_, receiver_host_.id(), 1, cfg,
                                          packets);
  }

  sim::Simulation sim_{1};
  net::Host sender_host_;
  net::Host receiver_host_;
  ScriptedPipe data_pipe_;
  ScriptedPipe ack_pipe_;
  std::unique_ptr<TcpSink> sink_;
  std::unique_ptr<TcpSource> source_;
};

TEST_F(TcpSourceTest, InitialWindowSendsTwoPackets) {
  make_flow(-1);
  source_->start(SimTime::zero());
  sim_.run_until(1_ms);
  EXPECT_EQ(source_->snd_nxt(), 2);
  EXPECT_EQ(source_->packets_in_flight(), 2);
}

TEST_F(TcpSourceTest, ConfigurableInitialWindow) {
  TcpConfig cfg;
  cfg.initial_cwnd = 4.0;
  make_flow(-1, cfg);
  source_->start(SimTime::zero());
  sim_.run_until(1_ms);
  EXPECT_EQ(source_->snd_nxt(), 4);
}

TEST_F(TcpSourceTest, SlowStartDoublesEveryRtt) {
  make_flow(-1);
  source_->start(SimTime::zero());
  // Sample cwnd just after each round-trip boundary.
  std::vector<double> cwnd_at_rtt;
  for (int r = 1; r <= 5; ++r) {
    sim_.run_until(SimTime::milliseconds(100 * r + 10));
    cwnd_at_rtt.push_back(source_->cwnd());
  }
  EXPECT_NEAR(cwnd_at_rtt[0], 4.0, 0.1);
  EXPECT_NEAR(cwnd_at_rtt[1], 8.0, 0.1);
  EXPECT_NEAR(cwnd_at_rtt[2], 16.0, 0.1);
  EXPECT_NEAR(cwnd_at_rtt[3], 32.0, 0.1);
  EXPECT_NEAR(cwnd_at_rtt[4], 64.0, 0.1);
  EXPECT_TRUE(source_->in_slow_start());
}

TEST_F(TcpSourceTest, CongestionAvoidanceAddsAboutOnePacketPerRtt) {
  TcpConfig cfg;
  cfg.initial_ssthresh = 8.0;  // leave slow start quickly
  make_flow(-1, cfg);
  source_->start(SimTime::zero());
  sim_.run_until(SimTime::seconds(1));  // well into CA
  const double w1 = source_->cwnd();
  sim_.run_until(SimTime::seconds(1) + 500_ms);  // +5 RTTs
  const double w2 = source_->cwnd();
  EXPECT_FALSE(source_->in_slow_start());
  EXPECT_NEAR(w2 - w1, 5.0, 1.0);
}

TEST_F(TcpSourceTest, MaxWindowCapsInFlight) {
  TcpConfig cfg;
  cfg.max_window = 5;
  make_flow(-1, cfg);
  source_->start(SimTime::zero());
  sim_.run_until(SimTime::seconds(3));
  EXPECT_LE(source_->packets_in_flight(), 5);
}

TEST_F(TcpSourceTest, FiniteFlowCompletesAndReportsTimes) {
  make_flow(20);
  bool completed = false;
  source_->set_completion_callback([&](TcpSource& s) {
    completed = true;
    EXPECT_EQ(&s, source_.get());
  });
  source_->start(10_ms);
  sim_.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(source_->start_time(), 10_ms);
  EXPECT_GT(source_->finish_time(), source_->start_time());
  EXPECT_EQ(sink_->next_expected(), 20);
  EXPECT_EQ(source_->stats().timeouts, 0u);
  EXPECT_EQ(source_->stats().retransmissions, 0u);
}

TEST_F(TcpSourceTest, LosslessDeliveryHasNoRetransmissions) {
  make_flow(200);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_EQ(source_->stats().data_packets_sent, 200u);
  EXPECT_EQ(sink_->packets_received(), 200u);
}

TEST_F(TcpSourceTest, FastRetransmitRepairsSingleLoss) {
  make_flow(100);
  data_pipe_.drop(40, 1);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(sink_->next_expected(), 100);
  EXPECT_EQ(source_->stats().fast_retransmits, 1u);
  EXPECT_EQ(source_->stats().timeouts, 0u);
  EXPECT_EQ(source_->stats().retransmissions, 1u);
}

TEST_F(TcpSourceTest, FastRetransmitHalvesWindow) {
  make_flow(-1);
  data_pipe_.drop(40, 1);
  source_->start(SimTime::zero());
  // Window reaches 64 in the round where seq 40 is in flight.
  sim_.run_until(SimTime::seconds(2));
  EXPECT_EQ(source_->stats().fast_retransmits, 1u);
  // After recovery, cwnd = ssthresh = (flight at loss)/2 < pre-loss cwnd.
  EXPECT_LT(source_->ssthresh(), 64.0);
  EXPECT_GE(source_->ssthresh(), 2.0);
  EXPECT_FALSE(source_->in_recovery());
}

TEST_F(TcpSourceTest, NewRenoRepairsMultipleLossesInOneEvent) {
  make_flow(100);
  data_pipe_.drop(40, 1);
  data_pipe_.drop(42, 1);
  data_pipe_.drop(44, 1);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(sink_->next_expected(), 100);
  // One loss event: a single fast retransmit entry; partial ACKs repaired
  // the remaining holes without another 3-dup-ACK detection.
  EXPECT_EQ(source_->stats().fast_retransmits, 1u);
  EXPECT_GE(source_->stats().retransmissions, 3u);
}

TEST_F(TcpSourceTest, RenoFlavorAlsoRecoversFromMultipleLosses) {
  TcpConfig cfg;
  cfg.flavor = TcpFlavor::kReno;
  make_flow(100, cfg);
  data_pipe_.drop(40, 1);
  data_pipe_.drop(42, 1);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(sink_->next_expected(), 100);
}

TEST_F(TcpSourceTest, TimeoutWhenTooFewDupAcksPossible) {
  // 3-packet flow, last packet lost: no dup ACKs can arrive, so only the
  // retransmission timer can repair it.
  make_flow(3);
  data_pipe_.drop(2, 1);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(source_->stats().timeouts, 1u);
  EXPECT_EQ(sink_->next_expected(), 3);
}

TEST_F(TcpSourceTest, RepeatedTimeoutsBackOffExponentially) {
  TcpConfig cfg;
  cfg.rtt.initial_rto = 400_ms;
  make_flow(1, cfg);
  data_pipe_.drop_first_n(0, 3);  // first three transmissions all lost
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(source_->stats().timeouts, 3u);
  // Timeline: send@0, rto@0.4, rto@1.2 (0.4+0.8), rto@2.8 (+1.6),
  // delivery completes one RTT later.
  EXPECT_GE(source_->finish_time(), SimTime::milliseconds(2800));
  EXPECT_LT(source_->finish_time(), SimTime::seconds(4));
}

TEST_F(TcpSourceTest, TimeoutEntersSlowStartAtOnePacket) {
  make_flow(-1);
  data_pipe_.drop(1, 1);  // loss with almost nothing in flight -> timeout
  source_->start(SimTime::zero());
  sim_.run_until(250_ms);  // past the first send, before RTO
  sim_.run_until(SimTime::seconds(2));
  EXPECT_GE(source_->stats().timeouts, 1u);
  // After repair the flow keeps making progress.
  EXPECT_GT(source_->snd_una(), 100);
}

TEST_F(TcpSourceTest, DupAcksBelowRecoverDoNotRehalve) {
  // Drop a burst of packets; with the RFC 6582 gate the whole burst is one
  // loss event, so ssthresh is halved once (not once per hole).
  make_flow(400);
  for (std::int64_t s = 60; s < 90; s += 2) data_pipe_.drop(s, 1);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(sink_->next_expected(), 400);
  // Window at loss was ~64+: one halving (with possibly one timeout if the
  // impatient timer fires) must leave ssthresh well above the 2-packet floor.
  EXPECT_GE(source_->ssthresh(), 8.0);
  EXPECT_LE(source_->stats().fast_retransmits, 2u);
}

TEST_F(TcpSourceTest, SmallWindowLossTimesOutWithoutLimitedTransmit) {
  TcpConfig cfg;
  cfg.max_window = 3;  // a loss leaves only 2 packets to generate dup ACKs
  // RTT is 100 ms; with the 200 ms minimum RTO the third dup ACK would race
  // the timer to the same tick. Use a realistic margin so the experiment
  // isolates the dup-ACK mechanism, not the race.
  cfg.rtt.min_rto = 400_ms;
  make_flow(50, cfg);
  data_pipe_.drop(20, 1);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(source_->stats().timeouts, 1u);
  EXPECT_EQ(source_->stats().fast_retransmits, 0u);
}

TEST_F(TcpSourceTest, LimitedTransmitAvoidsSmallWindowTimeout) {
  TcpConfig cfg;
  cfg.max_window = 3;
  cfg.limited_transmit = true;  // RFC 3042
  cfg.rtt.min_rto = 400_ms;     // see the no-LT twin above
  make_flow(50, cfg);
  data_pipe_.drop(20, 1);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  // The two limited-transmit segments produce the extra dup ACKs needed to
  // trigger fast retransmit instead of waiting out the RTO.
  EXPECT_EQ(source_->stats().timeouts, 0u);
  EXPECT_EQ(source_->stats().fast_retransmits, 1u);
  EXPECT_EQ(sink_->next_expected(), 50);
}

TEST_F(TcpSourceTest, LimitedTransmitSendsAtMostTwoExtraSegments) {
  TcpConfig cfg;
  cfg.max_window = 10;
  cfg.limited_transmit = true;
  make_flow(-1, cfg);
  data_pipe_.drop(30, 1);
  source_->start(SimTime::zero());
  sim_.run_until(SimTime::seconds(4));
  // Flow recovers via fast retransmit and keeps running; limited transmit
  // must not have ballooned the window beyond cwnd + 2.
  EXPECT_EQ(source_->stats().timeouts, 0u);
  EXPECT_LE(source_->packets_in_flight(),
            static_cast<std::int64_t>(source_->cwnd()) + 2);
}

TEST_F(TcpSourceTest, RttEstimateConvergesToPathRtt) {
  make_flow(200);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_NEAR(source_->rtt_estimator().srtt().to_seconds(), 0.100, 0.002);
}

TEST_F(TcpSourceTest, RetransmissionDoesNotCorruptRttEstimate) {
  // Karn's problem: an ACK for a retransmitted segment is ambiguous. Our
  // sink echoes the timestamp of the transmission that actually arrived, so
  // the sample stays correct even across a retransmission.
  TcpConfig cfg;
  cfg.rtt.min_rto = 400_ms;
  make_flow(60, cfg);
  data_pipe_.drop(20, 1);
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_TRUE(source_->finished());
  // Path RTT is exactly 100 ms; a Karn violation (measuring from the first
  // transmission of seq 20 to the ACK of its second) would inject a sample
  // of several hundred ms and drag SRTT visibly upward.
  EXPECT_NEAR(source_->rtt_estimator().srtt().to_seconds(), 0.100, 0.005);
}

TEST_F(TcpSourceTest, RttSampleCoversQueueingNotJustPropagation) {
  // With ACKs delayed a further 30 ms by the scripted pipe, SRTT must track
  // the full path time, not the configured propagation.
  sim::Simulation sim{5};
  net::Host snd{sim, 1, "s"}, rcv{sim, 2, "r"};
  ScriptedPipe data{sim, rcv, 80_ms}, ack{sim, snd, 50_ms};
  snd.attach_uplink(data);
  rcv.attach_uplink(ack);
  TcpSink sink{sim, rcv, 1};
  TcpSource src{sim, snd, rcv.id(), 1, TcpConfig{}, 100};
  src.start(SimTime::zero());
  sim.run();
  EXPECT_NEAR(src.rtt_estimator().srtt().to_seconds(), 0.130, 0.005);
}

TEST_F(TcpSourceTest, CompletionCallbackFiresExactlyOnce) {
  make_flow(10);
  int calls = 0;
  source_->set_completion_callback([&](TcpSource&) { ++calls; });
  source_->start(SimTime::zero());
  sim_.run();
  EXPECT_EQ(calls, 1);
}

TEST_F(TcpSourceTest, StaleAcksAreIgnored) {
  make_flow(50);
  source_->start(SimTime::zero());
  sim_.run();
  const auto acks = source_->stats().acks_received;
  // Replay an old ACK directly; nothing should change.
  net::Packet stale;
  stale.flow = 1;
  stale.kind = net::PacketKind::kTcpAck;
  stale.ack = 1;
  source_->on_packet(stale);
  EXPECT_TRUE(source_->finished());
  EXPECT_EQ(source_->stats().acks_received, acks);  // finished flows ignore input
}

TEST_F(TcpSourceTest, HostileConfigThrows) {
  const auto with = [](auto edit) {
    TcpConfig cfg;
    edit(cfg);
    return cfg;
  };
  const std::vector<TcpConfig> hostile{
      with([](TcpConfig& c) { c.segment = core::Bytes{0}; }),
      with([](TcpConfig& c) { c.segment = core::Bytes{-1000}; }),
      with([](TcpConfig& c) { c.segment = core::Bytes{net::kMaxPacketBytes + 1}; }),
      with([](TcpConfig& c) { c.initial_cwnd = 0.5; }),
      with([](TcpConfig& c) { c.initial_cwnd = -2.0; }),
      with([](TcpConfig& c) { c.initial_cwnd = std::nan(""); }),
      with([](TcpConfig& c) { c.initial_cwnd = std::numeric_limits<double>::infinity(); }),
      with([](TcpConfig& c) { c.max_window = 0; }),
      with([](TcpConfig& c) { c.max_window = -5; }),
  };
  // A rejected source must leave nothing registered on the sender host: the
  // valid builds below reuse flow 1.
  const auto build = [this](const TcpConfig& cfg) {
    const TcpSource source{sim_, sender_host_, receiver_host_.id(), 1, cfg};
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_THROW(build(hostile[i]), std::invalid_argument) << "case " << i;
  }
  // The bounds themselves are valid.
  EXPECT_NO_THROW(build(with([](TcpConfig& c) { c.segment = core::Bytes{1}; })));
  make_flow(-1, with([](TcpConfig& c) {
    c.segment = core::Bytes{net::kMaxPacketBytes};
    c.initial_cwnd = 1.0;
    c.max_window = 1;
  }));
  source_->start(SimTime::zero());
  sim_.run_until(1_ms);
  EXPECT_EQ(source_->snd_nxt(), 1);
}

TEST_F(TcpSourceTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulation sim{42};
    net::Host snd{sim, 1, "s"}, rcv{sim, 2, "r"};
    ScriptedPipe data{sim, rcv, kDelay}, ack{sim, snd, kDelay};
    snd.attach_uplink(data);
    rcv.attach_uplink(ack);
    data.drop(10, 1);
    data.drop(25, 1);
    TcpSink sink{sim, rcv, 1};
    TcpSource src{sim, snd, rcv.id(), 1, TcpConfig{}, 120};
    src.start(SimTime::zero());
    sim.run();
    return src.finish_time();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace rbs::tcp
