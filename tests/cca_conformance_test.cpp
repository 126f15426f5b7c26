// CCA conformance harness: drives CongestionControl strategies directly with
// synthetic event sequences (no simulation, no TcpSource) and pins each
// flavor's defining behavior:
//   - CUBIC: the RFC 8312 window function W(t), K, fast convergence, and the
//     HyStart (RFC 9406) delay-increase slow-start exit;
//   - BBRv1: the Startup → Drain → ProbeBw phase walk, the 8-slot gain
//     cycle, ProbeRtt entry/dwell/cwnd-restore, and the delivery-rate taint
//     rules that keep hole-filling cumulative ACKs out of the max filter;
//   - DCTCP: the alpha EWMA over per-window marked fractions and the
//     proportional (1 − α/2) cut;
//   - Reno family: FNV-pinned state traces over a scripted event sequence,
//     guarding the bitwise-identical-to-pre-refactor contract at the
//     strategy level (golden_test.cpp guards it at the experiment level).
// A shared axiom battery then runs randomized loss/ECN/timeout sequences
// against every flavor: cwnd never drops below one packet, no state turns
// NaN, and the pacing interval stays positive and finite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"
#include "tcp/congestion_control.hpp"

namespace rbs {
namespace {

using sim::SimTime;
using namespace tcp;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

CcContext make_ctx(SimTime now, std::int64_t una, std::int64_t nxt,
                   SimTime srtt = SimTime::milliseconds(50),
                   SimTime min_rtt = SimTime::milliseconds(50)) {
  CcContext ctx;
  ctx.now = now;
  ctx.srtt = srtt;
  ctx.min_rtt = min_rtt;
  ctx.has_rtt = srtt > SimTime::zero();
  ctx.snd_una = una;
  ctx.snd_nxt = nxt;
  ctx.in_flight = nxt - una;
  return ctx;
}

// ---------------------------------------------------------------------------
// Flavor registry and machinery flags.
// ---------------------------------------------------------------------------

TEST(FlavorNames, RoundTripForAllSix) {
  EXPECT_EQ(all_flavors().size(), 6u);
  for (const TcpFlavor f : all_flavors()) {
    const auto back = flavor_from_name(flavor_name(f));
    ASSERT_TRUE(back.has_value()) << flavor_name(f);
    EXPECT_EQ(*back, f);
  }
  EXPECT_FALSE(flavor_from_name("vegas").has_value());
  EXPECT_FALSE(flavor_from_name("").has_value());
}

TEST(FlavorNames, MachineryFlagsPerFlavor) {
  const CcConfig cfg;
  for (const TcpFlavor f : all_flavors()) {
    CcHolder cc{f, cfg};
    EXPECT_EQ(cc->loss_restarts_slow_start(), f == TcpFlavor::kTahoe) << flavor_name(f);
    EXPECT_EQ(cc->wants_pacing(), f == TcpFlavor::kBbr) << flavor_name(f);
    // Partial-ACK hole repair: everything NewReno-derived; plain Reno exits
    // recovery on any new ACK and Tahoe has no recovery at all.
    const bool repairs = f != TcpFlavor::kTahoe && f != TcpFlavor::kReno;
    EXPECT_EQ(cc->partial_ack_repair(), repairs) << flavor_name(f);
  }
}

// ---------------------------------------------------------------------------
// Reno family: FNV-pinned state traces. The scripted sequence exercises slow
// start, fast retransmit, recovery inflation/deflation, ECN, timeout, and
// congestion avoidance; the pin guards the exact floating-point arithmetic.
// ---------------------------------------------------------------------------

std::uint64_t reno_family_trace_hash(TcpFlavor flavor) {
  const CcConfig cfg;
  CcHolder cc{flavor, cfg};
  std::string trace;
  const auto snap = [&] {
    char buf[80];
    std::snprintf(buf, sizeof buf, "%a/%a;", cc->cwnd(), cc->ssthresh());
    trace += buf;
  };
  auto t = SimTime::milliseconds(1);
  std::int64_t una = 0;
  std::int64_t nxt = 12;
  const auto step = [&](std::int64_t acked) {
    t = t + SimTime::milliseconds(50);
    una += acked;
    nxt = una + static_cast<std::int64_t>(cc->cwnd());
  };

  for (int i = 0; i < 10; ++i) {  // slow start
    step(1);
    cc->on_ack(make_ctx(t, una, nxt), 1, SimTime::milliseconds(52), 0);
    cc->on_acked_increase(make_ctx(t, una, nxt), 1);
    snap();
  }
  cc->on_loss_detected(make_ctx(t, una, una + 12));  // fast retransmit
  snap();
  for (int i = 0; i < 3; ++i) {
    cc->on_recovery_dup_ack(make_ctx(t, una, nxt));
    snap();
  }
  cc->on_recovery_partial_ack(make_ctx(t, una, nxt), 2);
  snap();
  cc->on_recovery_exit(make_ctx(t, una, nxt));
  snap();
  for (int i = 0; i < 20; ++i) {  // congestion avoidance
    step(1);
    cc->on_ack(make_ctx(t, una, nxt), 1, SimTime::milliseconds(55), 0);
    cc->on_acked_increase(make_ctx(t, una, nxt), 1);
    snap();
  }
  EXPECT_TRUE(cc->on_ecn_reduction(make_ctx(t, una, nxt)));
  snap();
  cc->on_timeout(make_ctx(t, una, una + 8), /*was_in_recovery=*/false);
  snap();
  for (int i = 0; i < 5; ++i) {
    step(1);
    cc->on_acked_increase(make_ctx(t, una, nxt), 1);
    snap();
  }
  return fnv1a(trace);
}

TEST(RenoFamilyPins, ScriptedTraceHashes) {
  EXPECT_EQ(reno_family_trace_hash(TcpFlavor::kTahoe), 6729689756757200045ull);
  EXPECT_EQ(reno_family_trace_hash(TcpFlavor::kReno), 13862379702430595133ull);
  EXPECT_EQ(reno_family_trace_hash(TcpFlavor::kNewReno), 13862379702430595133ull);
}

TEST(RenoFamilyPins, RenoAndNewRenoDifferOnlyInMachineryFlags) {
  // The scripted trace above is identical for Reno and NewReno by design:
  // the flavors differ in *when* TcpSource calls the hooks (partial-ACK
  // repair), not in the arithmetic of the hooks themselves.
  const CcConfig cfg;
  CcHolder reno{TcpFlavor::kReno, cfg};
  CcHolder newreno{TcpFlavor::kNewReno, cfg};
  EXPECT_FALSE(reno->partial_ack_repair());
  EXPECT_TRUE(newreno->partial_ack_repair());
}

// ---------------------------------------------------------------------------
// CUBIC (RFC 8312).
// ---------------------------------------------------------------------------

TEST(CubicPins, WindowFunctionAndKMatchRfc8312) {
  CcConfig cfg;
  CubicCc cc{cfg};
  const auto t0 = SimTime::seconds(1);

  cc.on_acked_increase(make_ctx(t0, 0, 100), 98);  // slow start to cwnd = 100
  ASSERT_DOUBLE_EQ(cc.cwnd(), 100.0);
  cc.on_loss_detected(make_ctx(t0, 0, 100));
  // First loss: no previous plateau, so W_max = cwnd; ssthresh = β·cwnd.
  EXPECT_DOUBLE_EQ(cc.w_max(), 100.0);
  EXPECT_DOUBLE_EQ(cc.ssthresh(), 70.0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 73.0);  // recovery-entry inflation (+3 dup ACKs)
  cc.on_recovery_exit(make_ctx(t0, 0, 100));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 70.0);

  // First CA ACK opens the epoch: K = cbrt((W_max − cwnd)/C).
  cc.on_acked_increase(make_ctx(t0, 0, 100), 0);
  const double k_expected = std::cbrt((100.0 - 70.0) / cfg.cubic.c);
  EXPECT_NEAR(cc.k(), k_expected, 1e-12);

  // W(t) = C·(t−K)³ + W_max: plateau at t = K, epoch window at t = 0,
  // convex probing beyond the plateau.
  EXPECT_DOUBLE_EQ(cc.cubic_window(cc.k()), cc.w_max());
  EXPECT_NEAR(cc.cubic_window(0.0), 70.0, 1e-9);
  EXPECT_DOUBLE_EQ(cc.cubic_window(cc.k() + 2.0), 100.0 + cfg.cubic.c * 8.0);
  EXPECT_LT(cc.cubic_window(cc.k() - 1.0), cc.w_max());  // concave approach
}

TEST(CubicPins, FastConvergenceShrinksPlateauBelowWindow) {
  CcConfig cfg;
  CubicCc cc{cfg};
  const auto t0 = SimTime::seconds(1);
  cc.on_acked_increase(make_ctx(t0, 0, 100), 98);
  cc.on_loss_detected(make_ctx(t0, 0, 100));
  cc.on_recovery_exit(make_ctx(t0, 0, 100));  // cwnd = 70, W_max = 100

  // Second loss below the previous plateau: another flow is claiming the
  // capacity, so release it early — W_max = cwnd·(2−β)/2 < cwnd (§4.6).
  cc.on_loss_detected(make_ctx(t0, 0, 70));
  EXPECT_DOUBLE_EQ(cc.w_max(), 70.0 * (2.0 - cfg.cubic.beta) / 2.0);
  EXPECT_LT(cc.w_max(), 70.0);
  EXPECT_DOUBLE_EQ(cc.ssthresh(), 70.0 * cfg.cubic.beta);

  // With fast convergence off, the plateau is simply the loss window.
  CcConfig plain = cfg;
  plain.cubic.fast_convergence = false;
  CubicCc cc2{plain};
  cc2.on_acked_increase(make_ctx(t0, 0, 100), 98);
  cc2.on_loss_detected(make_ctx(t0, 0, 100));
  cc2.on_recovery_exit(make_ctx(t0, 0, 100));
  cc2.on_loss_detected(make_ctx(t0, 0, 70));
  EXPECT_DOUBLE_EQ(cc2.w_max(), 70.0);
}

TEST(CubicPins, HystartExitsSlowStartOnDelayIncrease) {
  CcConfig cfg;
  CubicCc cc{cfg};
  const auto t0 = SimTime::seconds(1);
  const auto min_rtt = SimTime::milliseconds(100);  // η = min_rtt/8 = 12.5 ms

  cc.on_acked_increase(make_ctx(t0, 0, 100), 18);  // cwnd = 20, above low window
  ASSERT_LT(cc.cwnd(), cc.ssthresh());

  // Sample below the η threshold: stay in slow start.
  cc.on_ack(make_ctx(t0, 0, 100, min_rtt, min_rtt), 1, SimTime::milliseconds(112), 0);
  EXPECT_LT(cc.cwnd(), cc.ssthresh());

  // Sample past min_rtt + η: queueing has begun, hand over to CA.
  cc.on_ack(make_ctx(t0, 0, 100, min_rtt, min_rtt), 1, SimTime::milliseconds(113), 0);
  EXPECT_DOUBLE_EQ(cc.ssthresh(), cc.cwnd());
  EXPECT_FALSE(cc.cwnd() < cc.ssthresh());

  // Below hystart_low_window the exit must not fire (RFC 9406 §4.2).
  CubicCc small{cfg};
  small.on_acked_increase(make_ctx(t0, 0, 100), 6);  // cwnd = 8
  small.on_ack(make_ctx(t0, 0, 100, min_rtt, min_rtt), 1, SimTime::milliseconds(200), 0);
  EXPECT_LT(small.cwnd(), small.ssthresh());

  // And with HyStart disabled, only loss ends slow start.
  CcConfig off = cfg;
  off.cubic.hystart = false;
  CubicCc cc2{off};
  cc2.on_acked_increase(make_ctx(t0, 0, 100), 18);
  cc2.on_ack(make_ctx(t0, 0, 100, min_rtt, min_rtt), 1, SimTime::milliseconds(200), 0);
  EXPECT_LT(cc2.cwnd(), cc2.ssthresh());
}

// ---------------------------------------------------------------------------
// BBRv1: a synthetic round driver. Each round() delivers `pkts` packets in
// one cumulative ACK, `rtt` apart; two rounds complete one delivery-rate
// sample (the boundary needs snd_una to pass the round-start snd_nxt).
// ---------------------------------------------------------------------------

class BbrDriver {
 public:
  explicit BbrDriver(const CcConfig& cfg) : cc_{cfg} {}

  void round(std::int64_t pkts, SimTime rtt, SimTime rtt_sample,
             std::int64_t in_flight = 100) {
    now_ = now_ + rtt;
    una_ += pkts;
    nxt_ = una_ + 100;
    auto ctx = make_ctx(now_, una_, nxt_, rtt, rtt);
    ctx.in_flight = in_flight;
    cc_.on_ack(ctx, pkts, rtt_sample, 0);
  }

  [[nodiscard]] CcContext ctx(std::int64_t in_flight = 100) {
    auto c = make_ctx(now_, una_, nxt_);
    c.in_flight = in_flight;
    return c;
  }

  BbrCc& cc() { return cc_; }
  SimTime now() const { return now_; }
  std::int64_t una() const { return una_; }
  std::int64_t nxt() const { return nxt_; }
  void advance(SimTime dt) { now_ = now_ + dt; }
  void deliver(std::int64_t pkts) { una_ += pkts; nxt_ = una_ + 100; }

 private:
  BbrCc cc_;
  SimTime now_{SimTime::seconds(1)};
  std::int64_t una_{0};
  std::int64_t nxt_{100};
};

constexpr double kRttSec = 0.05;
const SimTime kRtt = SimTime::milliseconds(50);

TEST(BbrPins, StartupDrainProbeBwPhaseWalk) {
  const CcConfig cfg;
  BbrDriver d{cfg};
  EXPECT_EQ(d.cc().phase(), BbrCc::Phase::kStartup);
  EXPECT_DOUBLE_EQ(d.cc().pacing_gain(), cfg.bbr.startup_gain);

  // Constant 100 pkts per RTT: the first sample sets the baseline, and three
  // further samples without 25% growth declare the pipe full.
  for (int i = 0; i < 9 && d.cc().phase() == BbrCc::Phase::kStartup; ++i) {
    d.round(100, kRtt, kRtt);
  }
  ASSERT_EQ(d.cc().phase(), BbrCc::Phase::kDrain);
  EXPECT_DOUBLE_EQ(d.cc().pacing_gain(), 1.0 / cfg.bbr.startup_gain);
  // Two calls per sample at 100 pkts each: the estimate is pkts/RTT.
  EXPECT_NEAR(d.cc().bandwidth_estimate(), 100.0 / kRttSec, 1e-6);
  EXPECT_EQ(d.cc().min_rtt_estimate(), kRtt);

  // Drain exits once in_flight has shrunk to the estimated BDP (= 100 pkts).
  d.round(100, kRtt, kRtt, /*in_flight=*/1000);
  EXPECT_EQ(d.cc().phase(), BbrCc::Phase::kDrain);
  d.round(100, kRtt, kRtt, /*in_flight=*/50);
  ASSERT_EQ(d.cc().phase(), BbrCc::Phase::kProbeBw);
  EXPECT_DOUBLE_EQ(d.cc().pacing_gain(), 1.0);  // deterministic cruise slot
}

TEST(BbrPins, ProbeBwCyclesEightGainSlots) {
  const CcConfig cfg;
  BbrDriver d{cfg};
  for (int i = 0; i < 12 && d.cc().phase() != BbrCc::Phase::kProbeBw; ++i) {
    d.round(100, kRtt, kRtt, 50);
  }
  ASSERT_EQ(d.cc().phase(), BbrCc::Phase::kProbeBw);

  // Each round advances one slot (cycle period = min_rtt). Entry is at the
  // third slot, so one full wrap reads 1.0×5, then probe 1.25, drain 0.75.
  std::vector<double> gains;
  for (int i = 0; i < 8; ++i) {
    d.round(100, kRtt, kRtt, 50);
    gains.push_back(d.cc().pacing_gain());
  }
  const std::vector<double> expected{1.0, 1.0, 1.0, 1.0, 1.0, 1.25, 0.75, 1.0};
  EXPECT_EQ(gains, expected);
}

TEST(BbrPins, ProbeRttDeflatesDwellsAndRestoresCwnd) {
  const CcConfig cfg;
  BbrDriver d{cfg};
  for (int i = 0; i < 12 && d.cc().phase() != BbrCc::Phase::kProbeBw; ++i) {
    d.round(100, kRtt, kRtt, 50);
  }
  ASSERT_EQ(d.cc().phase(), BbrCc::Phase::kProbeBw);

  // Grow cwnd to the ProbeBw target (cwnd_gain × BDP = 200 pkts).
  d.cc().on_acked_increase(d.ctx(), 500);
  ASSERT_DOUBLE_EQ(d.cc().cwnd(), cfg.bbr.cwnd_gain * 100.0);
  const double cruise_cwnd = d.cc().cwnd();

  // Let the min-RTT estimate go stale: samples above the floor for longer
  // than min_rtt_window force a ProbeRtt dwell.
  d.advance(cfg.bbr.min_rtt_window + SimTime::seconds(1));
  d.deliver(100);
  d.cc().on_ack(d.ctx(), 100, kRtt + SimTime::milliseconds(5), 0);
  ASSERT_EQ(d.cc().phase(), BbrCc::Phase::kProbeRtt);
  EXPECT_DOUBLE_EQ(d.cc().pacing_gain(), 1.0);

  // During the dwell the window collapses to a token few packets...
  d.cc().on_acked_increase(d.ctx(), 10);
  EXPECT_LE(d.cc().cwnd(), 4.0);

  // ...and on exit the saved window returns (bbr_restore_cwnd), instead of
  // being rebuilt +1 per ACK over ~8 round trips.
  d.advance(cfg.bbr.probe_rtt_duration + SimTime::milliseconds(1));
  d.deliver(100);
  d.cc().on_ack(d.ctx(), 100, kRtt + SimTime::milliseconds(5), 0);
  ASSERT_EQ(d.cc().phase(), BbrCc::Phase::kProbeBw);
  EXPECT_GE(d.cc().cwnd(), cruise_cwnd);
}

TEST(BbrPins, LossTaintsDeliverySamplesInsteadOfCollapsingModel) {
  const CcConfig cfg;
  BbrDriver d{cfg};
  for (int i = 0; i < 12 && d.cc().phase() != BbrCc::Phase::kProbeBw; ++i) {
    d.round(100, kRtt, kRtt, 50);
  }
  ASSERT_EQ(d.cc().phase(), BbrCc::Phase::kProbeBw);
  const double bw_before = d.cc().bandwidth_estimate();
  ASSERT_NEAR(bw_before, 100.0 / kRttSec, 1e-6);

  // Half a round in: one un-boundary ACK, then loss with a large flight.
  d.round(100, kRtt, kRtt);  // may or may not close a round; state advances
  auto loss_ctx = d.ctx();
  loss_ctx.snd_nxt = d.una() + 300;
  loss_ctx.in_flight = 300;
  d.cc().on_loss_detected(loss_ctx);
  // v1 keeps the model: loss alone must not move the bandwidth estimate.
  EXPECT_DOUBLE_EQ(d.cc().bandwidth_estimate(), bw_before);

  // A hole-filling cumulative ACK jumps snd_una by 200 pkts in one RTT.
  // Naively that round samples a rate far above the true delivery rate; the
  // taint rule amortizes over the whole span since the loss instead.
  d.round(200, kRtt, kRtt);
  const double amortized = 200.0 / kRttSec;  // 4000 pkts/s over the epoch
  EXPECT_LE(d.cc().bandwidth_estimate(), amortized + 1e-6);

  // Once delivery passes the taint horizon, normal sampling resumes and any
  // spike ages out of the 10-round max filter: the estimate returns to the
  // true rate.
  for (int i = 0; i < 26; ++i) d.round(100, kRtt, kRtt);
  EXPECT_NEAR(d.cc().bandwidth_estimate(), 100.0 / kRttSec, 1e-6);
}

TEST(BbrPins, PacingIntervalIsGainTimesBandwidth) {
  const CcConfig cfg;
  BbrDriver d{cfg};
  // Before any sample: cwnd spread over the fallback RTT, scaled by gain.
  const auto fallback = SimTime::milliseconds(40);
  const auto warm = d.cc().pacing_interval(d.ctx(), fallback);
  EXPECT_GT(warm, SimTime::zero());
  EXPECT_DOUBLE_EQ(
      static_cast<double>(warm.ps()),
      std::floor(static_cast<double>(fallback.ps()) /
                 (cfg.initial_cwnd * cfg.bbr.startup_gain)));

  for (int i = 0; i < 12 && d.cc().phase() != BbrCc::Phase::kProbeBw; ++i) {
    d.round(100, kRtt, kRtt, 50);
  }
  ASSERT_EQ(d.cc().phase(), BbrCc::Phase::kProbeBw);
  // With a model: interval = 1 / (gain × btl_bw), independent of SRTT.
  const double rate = d.cc().pacing_gain() * d.cc().bandwidth_estimate();
  const auto paced = d.cc().pacing_interval(d.ctx(), fallback);
  EXPECT_EQ(paced.ps(), static_cast<std::int64_t>(1e12 / rate));
  EXPECT_EQ(paced, d.cc().pacing_interval(d.ctx(), SimTime::seconds(3)));
}

TEST(BbrPins, EcnMarksAreIgnored) {
  const CcConfig cfg;
  BbrCc cc{cfg};
  const double before = cc.cwnd();
  EXPECT_FALSE(cc.on_ecn_reduction(make_ctx(SimTime::seconds(1), 0, 100)));
  EXPECT_DOUBLE_EQ(cc.cwnd(), before);
}

// ---------------------------------------------------------------------------
// DCTCP.
// ---------------------------------------------------------------------------

TEST(DctcpPins, AlphaEwmaTracksMarkedFraction) {
  CcConfig cfg;
  cfg.dctcp.initial_alpha = 0.0;
  DctcpCc cc{cfg};
  const double g = cfg.dctcp.gain;
  ASSERT_DOUBLE_EQ(g, 1.0 / 16.0);

  // Fully marked windows: alpha_k = 1 − (1−g)^k (EWMA toward F = 1).
  std::int64_t una = 0;
  auto t = SimTime::seconds(1);
  for (int k = 1; k <= 20; ++k) {
    una += 10;
    t = t + kRtt;
    cc.on_ack(make_ctx(t, una, una + 10), 10, kRtt, 10);
    EXPECT_NEAR(cc.alpha(), 1.0 - std::pow(1.0 - g, k), 1e-12) << "window " << k;
  }

  // Unmarked windows decay alpha geometrically toward zero.
  const double peak = cc.alpha();
  for (int k = 1; k <= 10; ++k) {
    una += 10;
    t = t + kRtt;
    cc.on_ack(make_ctx(t, una, una + 10), 10, kRtt, 0);
    EXPECT_NEAR(cc.alpha(), peak * std::pow(1.0 - g, k), 1e-12) << "window " << k;
  }

  // A half-marked window folds F = 1/2 with weight g.
  DctcpCc half{cfg};
  half.on_ack(make_ctx(SimTime::seconds(1), 10, 20), 10, kRtt, 5);
  EXPECT_NEAR(half.alpha(), g * 0.5, 1e-15);
}

TEST(DctcpPins, EcnCutIsProportionalToAlpha) {
  CcConfig cfg;
  cfg.dctcp.initial_alpha = 0.5;
  DctcpCc cc{cfg};
  cc.on_acked_increase(make_ctx(SimTime::seconds(1), 0, 100), 98);  // cwnd = 100
  ASSERT_TRUE(cc.on_ecn_reduction(make_ctx(SimTime::seconds(1), 0, 100)));
  // cwnd ← cwnd·(1 − α/2) = 100 · 0.75, a gentle cut — not Reno's halving.
  EXPECT_DOUBLE_EQ(cc.cwnd(), 75.0);
  EXPECT_DOUBLE_EQ(cc.ssthresh(), 75.0);
}

TEST(DctcpPins, SaturatedAlphaHalvesLikeReno) {
  CcConfig cfg;  // initial_alpha = 1.0: conservative until the EWMA warms up
  DctcpCc cc{cfg};
  cc.on_acked_increase(make_ctx(SimTime::seconds(1), 0, 100), 98);
  ASSERT_TRUE(cc.on_ecn_reduction(make_ctx(SimTime::seconds(1), 0, 100)));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 50.0);
}

TEST(DctcpPins, LossFallsBackToRenoHalving) {
  const CcConfig cfg;
  DctcpCc cc{cfg};
  cc.on_acked_increase(make_ctx(SimTime::seconds(1), 0, 100), 98);
  cc.on_loss_detected(make_ctx(SimTime::seconds(1), 0, 100));  // flight = 100
  EXPECT_DOUBLE_EQ(cc.ssthresh(), 50.0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 53.0);
}

// ---------------------------------------------------------------------------
// Axiom battery: randomized event sequences against every flavor. The driver
// maintains a legal connection state machine (recovery entered by loss,
// left by exit or timeout) and fires random ACK/ECN/loss/timeout events;
// after every hook the strategy must hold the universal invariants.
// ---------------------------------------------------------------------------

class CcaAxioms : public ::testing::TestWithParam<TcpFlavor> {};

TEST_P(CcaAxioms, RandomizedEventSequencesKeepStateSane) {
  const CcConfig cfg;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng{seed * 7919};
    CcHolder cc{GetParam(), cfg};
    auto now = SimTime::milliseconds(1);
    const auto min_rtt = SimTime::milliseconds(20);
    std::int64_t una = 0;
    std::int64_t nxt = 10;
    bool in_recovery = false;

    for (int step = 0; step < 2000; ++step) {
      now = now + SimTime::microseconds(rng.uniform_int(10, 50'000));
      const auto srtt = min_rtt + SimTime::microseconds(rng.uniform_int(0, 30'000));
      auto ctx = make_ctx(now, una, nxt, srtt, min_rtt);

      if (!in_recovery) {
        switch (rng.uniform_int(0, 5)) {
          case 0:
          case 1:
          case 2: {  // cumulative ACK, possibly ECN-echoing, then growth
            const std::int64_t acked = rng.uniform_int(1, 50);
            const auto echo = static_cast<std::int32_t>(
                rng.bernoulli(0.3) ? rng.uniform_int(0, acked) : 0);
            una += acked;
            nxt = una + rng.uniform_int(1, 200);
            ctx = make_ctx(now, una, nxt, srtt, min_rtt);
            const auto sample = min_rtt + SimTime::microseconds(rng.uniform_int(0, 40'000));
            cc->on_ack(ctx, acked, sample, echo);
            cc->on_acked_increase(ctx, rng.uniform_int(1, acked));
            break;
          }
          case 3:
            (void)cc->on_ecn_reduction(ctx);
            break;
          case 4:
            cc->on_loss_detected(ctx);
            in_recovery = !cc->loss_restarts_slow_start();
            break;
          case 5:
            cc->on_timeout(ctx, false);
            una = nxt;  // go-back-N rewinds the send point, not delivery
            break;
        }
      } else {
        switch (rng.uniform_int(0, 3)) {
          case 0:
            cc->on_recovery_dup_ack(ctx);
            break;
          case 1: {
            const std::int64_t acked = rng.uniform_int(1, 20);
            una += acked;
            nxt = std::max(nxt, una + 1);
            cc->on_recovery_partial_ack(make_ctx(now, una, nxt, srtt, min_rtt), acked);
            break;
          }
          case 2:
            cc->on_recovery_exit(ctx);
            in_recovery = false;
            break;
          case 3:
            cc->on_timeout(ctx, true);
            in_recovery = false;
            break;
        }
      }

      // Universal axioms, checked after every single event.
      ASSERT_GE(cc->cwnd(), 1.0) << flavor_name(GetParam()) << " step " << step;
      ASSERT_LE(cc->cwnd(), static_cast<double>(cfg.max_window) + 4.0);
      ASSERT_FALSE(std::isnan(cc->cwnd()));
      ASSERT_FALSE(std::isnan(cc->ssthresh()));
      ASSERT_GE(cc->ssthresh(), 2.0);
      const auto pace = cc->pacing_interval(ctx, std::max(srtt, SimTime::milliseconds(1)));
      ASSERT_GT(pace, SimTime::zero()) << flavor_name(GetParam()) << " step " << step;
      ASSERT_LT(pace, SimTime::seconds(3600));
    }
  }
}

TEST_P(CcaAxioms, TimeoutAlwaysCollapsesToOnePacket) {
  const CcConfig cfg;
  CcHolder cc{GetParam(), cfg};
  cc->on_acked_increase(make_ctx(SimTime::seconds(1), 0, 64), 62);
  cc->on_timeout(make_ctx(SimTime::seconds(1), 0, 64), false);
  EXPECT_DOUBLE_EQ(cc->cwnd(), 1.0);
}

TEST_P(CcaAxioms, WindowCcasSpreadOneCwndOverOneRtt) {
  if (GetParam() == TcpFlavor::kBbr) return;  // rate-based: pinned above
  const CcConfig cfg;
  CcHolder cc{GetParam(), cfg};
  const auto ctx = make_ctx(SimTime::seconds(1), 0, 10);
  const auto srtt = SimTime::milliseconds(100);
  // The pre-refactor formula, bit for bit: srtt / cwnd, truncated to ps.
  const auto expected = SimTime::picoseconds(static_cast<std::int64_t>(
      static_cast<double>(srtt.ps()) / cc->cwnd()));
  EXPECT_EQ(cc->pacing_interval(ctx, srtt), expected);
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, CcaAxioms, ::testing::ValuesIn(all_flavors()),
                         [](const ::testing::TestParamInfo<TcpFlavor>& info) {
                           return std::string{flavor_name(info.param)};
                         });

}  // namespace
}  // namespace rbs
