#include "tcp/congestion_control.hpp"

#include <cmath>

namespace rbs::tcp {

const char* flavor_name(TcpFlavor flavor) noexcept {
  switch (flavor) {
    case TcpFlavor::kTahoe: return "tahoe";
    case TcpFlavor::kReno: return "reno";
    case TcpFlavor::kNewReno: return "newreno";
    case TcpFlavor::kCubic: return "cubic";
    case TcpFlavor::kBbr: return "bbr";
    case TcpFlavor::kDctcp: return "dctcp";
  }
  return "unknown";
}

std::optional<TcpFlavor> flavor_from_name(std::string_view name) noexcept {
  for (const TcpFlavor f : all_flavors()) {
    if (name == flavor_name(f)) return f;
  }
  return std::nullopt;
}

const std::array<TcpFlavor, 6>& all_flavors() noexcept {
  static const std::array<TcpFlavor, 6> kAll = {
      TcpFlavor::kTahoe, TcpFlavor::kReno,   TcpFlavor::kNewReno,
      TcpFlavor::kCubic, TcpFlavor::kBbr,    TcpFlavor::kDctcp,
  };
  return kAll;
}

// --- Reno family (bitwise-identical to the pre-refactor TcpSource) ---------

void RenoFamilyCc::on_acked_increase(const CcContext& ctx, std::int64_t increments) {
  (void)ctx;
  for (std::int64_t i = 0; i < increments; ++i) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;  // slow start
    } else {
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance
    }
  }
  cwnd_ = std::min(cwnd_, max_window_);
}

bool RenoFamilyCc::on_ecn_reduction(const CcContext& ctx) {
  (void)ctx;
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = ssthresh_;
  return true;
}

void RenoFamilyCc::on_loss_detected(const CcContext& ctx) {
  const auto flight = static_cast<double>(ctx.in_flight);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  if (flavor_ == TcpFlavor::kTahoe) {
    cwnd_ = 1.0;  // restart from slow start; no recovery phase
  } else {
    cwnd_ = ssthresh_ + 3.0;  // the three dup ACKs that triggered us
  }
}

void RenoFamilyCc::on_timeout(const CcContext& ctx, bool was_in_recovery) {
  // Reduce once per loss event: a timeout interrupting fast recovery keeps
  // the ssthresh set when that event was detected (flight is inflated by
  // recovery sends; halving again would oscillate).
  if (!was_in_recovery) {
    const auto flight = static_cast<double>(ctx.in_flight);
    ssthresh_ = std::max(flight / 2.0, 2.0);
  }
  cwnd_ = 1.0;
}

// --- CUBIC (RFC 8312) ------------------------------------------------------

double CubicCc::cubic_window(double t_sec) const noexcept {
  const double d = t_sec - k_;
  return kC * d * d * d + w_max_;
}

void CubicCc::reduce() {
  epoch_valid_ = false;
  // Fast convergence: when the window at loss is below the previous W_max,
  // another flow is taking the capacity — release it early by shrinking the
  // plateau below the current window (RFC 8312 §4.6).
  if (cwnd_ < w_max_) {
    w_max_ = cwnd_ * (2.0 - kBeta) / 2.0;
  } else {
    w_max_ = cwnd_;
  }
  ssthresh_ = std::max(cwnd_ * kBeta, 2.0);
}

void CubicCc::on_ack(const CcContext& ctx, std::int64_t newly_acked, sim::SimTime rtt_sample,
                     std::int32_t ecn_echo_count) {
  (void)newly_acked;
  (void)ecn_echo_count;
  // HyStart delay-increase exit (RFC 9406 §4.2, single-sample variant): once
  // a round-trip sample exceeds the lifetime floor by η, queueing has begun
  // and slow start has found the pipe — hand over to congestion avoidance by
  // pulling ssthresh down to the current window.
  if (cwnd_ >= ssthresh_ || cwnd_ < kHystartLowWindow) return;
  if (rtt_sample <= sim::SimTime::zero() || ctx.min_rtt <= sim::SimTime::zero()) return;
  const auto eta = std::clamp(sim::SimTime::picoseconds(ctx.min_rtt.ps() / 8),
                              sim::SimTime::milliseconds(4), sim::SimTime::milliseconds(16));
  if (rtt_sample >= ctx.min_rtt + eta) ssthresh_ = cwnd_;
}

void CubicCc::on_acked_increase(const CcContext& ctx, std::int64_t increments) {
  if (cwnd_ < ssthresh_) {
    // Slow start, identical to Reno.
    for (std::int64_t i = 0; i < increments; ++i) cwnd_ += 1.0;
    cwnd_ = std::min(cwnd_, max_window_);
    return;
  }
  if (!epoch_valid_) {
    epoch_valid_ = true;
    epoch_start_ = ctx.now;
    if (w_max_ < cwnd_) {
      // Above the old plateau already (e.g. after slow start): probe from
      // here, K = 0.
      w_max_ = cwnd_;
      k_ = 0.0;
    } else {
      k_ = std::cbrt((w_max_ - cwnd_) / kC);
    }
    w_est_ = cwnd_;
  }
  // RFC 8312 §4.1: target is the cubic evaluated one RTT ahead.
  const double rtt_sec = ctx.has_rtt ? ctx.srtt.to_seconds() : 0.0;
  // Per-ACK AIMD-equivalent growth for the TCP-friendly region (§4.2).
  constexpr double kEstSlope = 3.0 * (1.0 - kBeta) / (1.0 + kBeta);
  for (std::int64_t i = 0; i < increments; ++i) {
    const double t = (ctx.now - epoch_start_).to_seconds() + rtt_sec;
    const double target = cubic_window(t);
    if (target > cwnd_) {
      cwnd_ += (target - cwnd_) / cwnd_;
    } else {
      cwnd_ += 0.01 / cwnd_;  // minimum growth in the plateau region
    }
    w_est_ += kEstSlope / cwnd_;
    if (w_est_ > cwnd_) cwnd_ = w_est_;
  }
  cwnd_ = std::min(cwnd_, max_window_);
}

bool CubicCc::on_ecn_reduction(const CcContext& ctx) {
  (void)ctx;
  reduce();
  cwnd_ = ssthresh_;
  return true;
}

void CubicCc::on_loss_detected(const CcContext& ctx) {
  (void)ctx;
  reduce();
  cwnd_ = ssthresh_ + 3.0;  // recovery-entry inflation, as in Reno machinery
}

void CubicCc::on_timeout(const CcContext& ctx, bool was_in_recovery) {
  (void)ctx;
  if (!was_in_recovery) reduce();
  epoch_valid_ = false;
  cwnd_ = 1.0;
}

// --- BBRv1-style rate model ------------------------------------------------

namespace {
constexpr double kBbrMinCwnd = 4.0;
constexpr std::array<double, 8> kBbrGainCycle = {1.25, 0.75, 1.0, 1.0,
                                                 1.0,  1.0,  1.0, 1.0};
}  // namespace

double BbrCc::bdp_estimate() const noexcept {
  if (btl_bw_ <= 0.0 || !min_rtt_valid_) return 0.0;
  return btl_bw_ * min_rtt_.to_seconds();
}

double BbrCc::target_cwnd() const noexcept {
  const double bdp = bdp_estimate();
  if (bdp <= 0.0) return max_window_;
  return std::max(cwnd_gain_ * bdp, kBbrMinCwnd);
}

void BbrCc::push_bw_sample(double bw) noexcept {
  // Windowed max over the last kBwFilterRounds rounds. A round yields at
  // most one sample, so its slot holds either it or a stale round.
  bw_window_[static_cast<std::size_t>(round_count_ % kBwFilterRounds)] = {round_count_, bw};
  const std::int64_t horizon = round_count_ - kBwFilterRounds;
  btl_bw_ = bw;
  for (const auto& [round, sample] : bw_window_) {
    if (round > horizon) btl_bw_ = std::max(btl_bw_, sample);
  }
}

void BbrCc::enter_probe_bw(sim::SimTime now) noexcept {
  phase_ = Phase::kProbeBw;
  cycle_index_ = 2;  // start in a cruise slot (deterministic; BBRv1 randomizes)
  pacing_gain_ = kBbrGainCycle[static_cast<std::size_t>(cycle_index_)];
  cwnd_gain_ = kCwndGain;
  cycle_stamp_ = now;
}

void BbrCc::advance_state(const CcContext& ctx) noexcept {
  // ProbeRtt entry: the min-RTT estimate went stale. Deflate to a token
  // window so the queue drains and the next samples see propagation delay.
  if (phase_ != Phase::kProbeRtt && min_rtt_valid_ &&
      ctx.now - min_rtt_stamp_ > kMinRttWindow) {
    phase_ = Phase::kProbeRtt;
    pacing_gain_ = 1.0;
    cwnd_gain_ = 1.0;
    probe_rtt_start_ = ctx.now;
    probe_rtt_saved_cwnd_ = cwnd_;  // restored on exit (see header)
    return;
  }
  switch (phase_) {
    case Phase::kStartup:
      if (full_pipe_) {
        phase_ = Phase::kDrain;
        pacing_gain_ = 1.0 / kStartupGain;
      }
      break;
    case Phase::kDrain:
      if (static_cast<double>(ctx.in_flight) <= bdp_estimate()) enter_probe_bw(ctx.now);
      break;
    case Phase::kProbeBw: {
      const auto period = std::max(min_rtt_, sim::SimTime::milliseconds(1));
      if (ctx.now - cycle_stamp_ >= period) {
        cycle_index_ = (cycle_index_ + 1) % static_cast<int>(kBbrGainCycle.size());
        pacing_gain_ = kBbrGainCycle[static_cast<std::size_t>(cycle_index_)];
        cycle_stamp_ = ctx.now;
      }
      break;
    }
    case Phase::kProbeRtt:
      if (ctx.now - probe_rtt_start_ >= kProbeRttDuration) {
        min_rtt_stamp_ = ctx.now;  // refreshed: the drained queue was observed
        cwnd_ = std::max(cwnd_, probe_rtt_saved_cwnd_);  // bbr_restore_cwnd
        if (full_pipe_) {
          enter_probe_bw(ctx.now);
        } else {
          phase_ = Phase::kStartup;
          pacing_gain_ = kStartupGain;
          cwnd_gain_ = kStartupGain;
        }
      }
      break;
  }
}

void BbrCc::on_ack(const CcContext& ctx, std::int64_t newly_acked, sim::SimTime rtt_sample,
                   std::int32_t ecn_echo_count) {
  (void)ecn_echo_count;
  delivered_ += newly_acked;
  if (rtt_sample > sim::SimTime::zero()) {
    if (!min_rtt_valid_ || rtt_sample <= min_rtt_) {
      min_rtt_ = rtt_sample;
      min_rtt_stamp_ = ctx.now;
      min_rtt_valid_ = true;
    }
  }
  if (!round_time_valid_) {
    round_time_valid_ = true;
    round_start_time_ = ctx.now;
    round_start_delivered_ = delivered_;
    round_end_seq_ = ctx.snd_nxt;
  } else if (ctx.snd_una > round_end_seq_) {
    // A full round trip of data was delivered: one delivery-rate sample.
    // Rounds covering data that was outstanding at a loss or timeout are
    // excluded (see bw_suppress_until_seq_): their cumulative-ACK jumps are
    // hole-filling, not delivery. Elapsed is floored at the min RTT so ACK
    // compression cannot shrink the denominator below one real round trip.
    auto elapsed = ctx.now - round_start_time_;
    if (min_rtt_valid_ && elapsed < min_rtt_) elapsed = min_rtt_;
    const bool tainted = round_end_seq_ < bw_suppress_until_seq_;
    if (elapsed > sim::SimTime::zero()) {
      if (!tainted) {
        const double bw =
            static_cast<double>(delivered_ - round_start_delivered_) / elapsed.to_seconds();
        push_bw_sample(bw);
      } else if (ctx.now > taint_anchor_time_) {
        // Amortized taint-epoch sample (see bw_suppress_until_seq_).
        const double bw = static_cast<double>(delivered_ - taint_anchor_delivered_) /
                          (ctx.now - taint_anchor_time_).to_seconds();
        push_bw_sample(bw);
      }
      if (phase_ == Phase::kStartup) {
        // Full-pipe detection: three rounds without 25% bandwidth growth.
        // Tainted rounds count as no-growth rounds — a retransmission storm
        // is the strongest possible evidence the pipe is already full, and
        // skipping them would pin Startup's 2.885 gain through the storm.
        if (!tainted && btl_bw_ >= full_pipe_bw_ * kFullPipeGrowth) {
          full_pipe_bw_ = btl_bw_;
          full_pipe_rounds_ = 0;
        } else if (++full_pipe_rounds_ >= 3) {
          full_pipe_ = true;
        }
      }
    }
    ++round_count_;
    round_start_time_ = ctx.now;
    round_start_delivered_ = delivered_;
    round_end_seq_ = ctx.snd_nxt;
  }
  advance_state(ctx);
}

void BbrCc::on_acked_increase(const CcContext& ctx, std::int64_t increments) {
  (void)ctx;
  if (phase_ == Phase::kProbeRtt) {
    cwnd_ = std::min(std::max(cwnd_, 1.0), kBbrMinCwnd);
    return;
  }
  cwnd_ = std::min(cwnd_ + static_cast<double>(increments), target_cwnd());
  cwnd_ = std::max(cwnd_, kBbrMinCwnd);
  cwnd_ = std::min(cwnd_, max_window_);
}

bool BbrCc::on_ecn_reduction(const CcContext& ctx) {
  (void)ctx;
  return false;  // BBRv1 does not react to ECN marks
}

void BbrCc::on_loss_detected(const CcContext& ctx) {
  // Packet conservation during recovery; the model (btl_bw, min_rtt) is
  // untouched — loss is not a congestion signal for the v1 model. Delivery
  // of everything currently outstanding is tainted by retransmission.
  if (ctx.snd_una > bw_suppress_until_seq_) {  // entering a fresh taint epoch
    taint_anchor_time_ = ctx.now;
    taint_anchor_delivered_ = delivered_;
  }
  bw_suppress_until_seq_ = std::max(bw_suppress_until_seq_, ctx.snd_nxt);
  prior_cwnd_ = std::max(prior_cwnd_, cwnd_);
  cwnd_ = std::max(static_cast<double>(ctx.in_flight), kBbrMinCwnd);
}

void BbrCc::on_recovery_partial_ack(const CcContext& ctx, std::int64_t newly_acked) {
  (void)ctx;
  (void)newly_acked;  // conservation: no NewReno deflation
}

void BbrCc::on_recovery_exit(const CcContext& ctx) {
  (void)ctx;
  cwnd_ = std::max(prior_cwnd_, target_cwnd());
  cwnd_ = std::min(cwnd_, max_window_);
  prior_cwnd_ = 0.0;
}

void BbrCc::on_timeout(const CcContext& ctx, bool was_in_recovery) {
  (void)was_in_recovery;
  // ctx.snd_nxt is the pre-rewind high-water mark: the whole go-back-N
  // range is retransmitted, so its (re)delivery must not feed the bw filter.
  if (ctx.snd_una > bw_suppress_until_seq_) {  // entering a fresh taint epoch
    taint_anchor_time_ = ctx.now;
    taint_anchor_delivered_ = delivered_;
  }
  bw_suppress_until_seq_ = std::max(bw_suppress_until_seq_, ctx.snd_nxt);
  prior_cwnd_ = std::max(prior_cwnd_, cwnd_);
  cwnd_ = 1.0;  // rebuilt toward target_cwnd() by the next ACKs
}

sim::SimTime BbrCc::pacing_interval(const CcContext& ctx,
                                    sim::SimTime srtt_or_fallback) const {
  if (btl_bw_ > 0.0) {
    const double rate = pacing_gain_ * btl_bw_;  // packets per second
    return sim::SimTime::picoseconds(static_cast<std::int64_t>(1e12 / rate));
  }
  // No delivery-rate sample yet: spread cwnd over one (assumed) RTT with the
  // startup gain, so the first flight already probes upward.
  const double window = std::max(cwnd_, 1.0) * pacing_gain_;
  (void)ctx;
  return sim::SimTime::picoseconds(
      static_cast<std::int64_t>(static_cast<double>(srtt_or_fallback.ps()) / window));
}

// --- DCTCP -----------------------------------------------------------------

void DctcpCc::on_ack(const CcContext& ctx, std::int64_t newly_acked, sim::SimTime rtt_sample,
                     std::int32_t ecn_echo_count) {
  (void)rtt_sample;
  window_acked_ += newly_acked;
  window_marked_ += static_cast<std::int64_t>(ecn_echo_count);
  if (ctx.snd_una > window_end_) {
    // One window of data acknowledged: fold the marked fraction into alpha
    // (SIGCOMM 2010, eq. 1). F is clamped — reordering can echo marks for
    // packets acknowledged cumulatively in a later window.
    if (window_acked_ > 0) {
      const double f =
          std::min(1.0, static_cast<double>(window_marked_) / static_cast<double>(window_acked_));
      alpha_ = (1.0 - kGain) * alpha_ + kGain * f;
    }
    window_acked_ = 0;
    window_marked_ = 0;
    window_end_ = ctx.snd_nxt - 1;
  }
}

void DctcpCc::on_acked_increase(const CcContext& ctx, std::int64_t increments) {
  (void)ctx;
  for (std::int64_t i = 0; i < increments; ++i) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;
    } else {
      cwnd_ += 1.0 / cwnd_;
    }
  }
  cwnd_ = std::min(cwnd_, max_window_);
}

bool DctcpCc::on_ecn_reduction(const CcContext& ctx) {
  (void)ctx;
  // Proportional cut: cwnd ← cwnd·(1 − α/2), once per window of data (the
  // caller's once-per-window guard provides the cadence).
  ssthresh_ = std::max(cwnd_ * (1.0 - alpha_ / 2.0), 2.0);
  cwnd_ = ssthresh_;
  return true;
}

void DctcpCc::on_loss_detected(const CcContext& ctx) {
  const auto flight = static_cast<double>(ctx.in_flight);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = ssthresh_ + 3.0;
}

void DctcpCc::on_timeout(const CcContext& ctx, bool was_in_recovery) {
  if (!was_in_recovery) {
    const auto flight = static_cast<double>(ctx.in_flight);
    ssthresh_ = std::max(flight / 2.0, 2.0);
  }
  cwnd_ = 1.0;
}

// --- In-place holder --------------------------------------------------------

CcHolder::Strategy CcHolder::make(TcpFlavor flavor, const TcpConfig& config) noexcept {
  switch (flavor) {
    case TcpFlavor::kTahoe:
    case TcpFlavor::kReno:
    case TcpFlavor::kNewReno:
      return Strategy{std::in_place_type<RenoFamilyCc>, config, flavor};
    case TcpFlavor::kCubic:
      return Strategy{std::in_place_type<CubicCc>, config};
    case TcpFlavor::kBbr:
      return Strategy{std::in_place_type<BbrCc>, config};
    case TcpFlavor::kDctcp:
      return Strategy{std::in_place_type<DctcpCc>, config};
  }
  return Strategy{std::in_place_type<RenoFamilyCc>, config, TcpFlavor::kNewReno};
}

CcHolder::CcHolder(TcpFlavor flavor, const TcpConfig& config) noexcept
    : strategy_{make(flavor, config)},
      cc_{std::visit([](CongestionControl& cc) { return &cc; }, strategy_)} {}

}  // namespace rbs::tcp
