// Congestion-control strategies behind TcpSource.
//
// TcpSource owns the mechanics every flavor shares — sequence bookkeeping,
// dup-ACK counting, fast-retransmit/recovery state, go-back-N after RTO,
// limited transmit, the RFC 6582 once-per-event gates — and delegates every
// window/rate *decision* to a CongestionControl object: growth per ACK, the
// reaction to loss, ECN and timeout, recovery inflation/deflation, and the
// pacing interval. The Reno-family strategies reproduce the pre-refactor
// arithmetic operation for operation (pinned bitwise by tests/golden_test.cpp);
// CUBIC (RFC 8312), a BBRv1-style rate-based model, and DCTCP's fractional
// ECN response are additional flavors behind the same interface.
//
// Strategies are plain objects with no simulation dependencies: everything
// they need from the connection arrives in a CcContext snapshot, so unit and
// property tests can drive them directly with synthetic event sequences
// (tests/cca_conformance_test.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>

#include "core/units.hpp"
#include "sim/time.hpp"

namespace rbs::tcp {

/// Congestion-control flavor.
enum class TcpFlavor : std::uint8_t {
  kTahoe,    ///< fast retransmit, then slow start from cwnd = 1 (no recovery)
  kReno,     ///< fast recovery; exit on any new ACK
  kNewReno,  ///< fast recovery; repair each hole on partial ACKs (RFC 6582)
  kCubic,    ///< RFC 8312 cubic window growth with fast convergence
  kBbr,      ///< BBRv1-style rate-based model driving the pacing path
  kDctcp,    ///< DCTCP fractional ECN response (needs RED step marking)
};

/// Canonical lower-case name ("tahoe", "reno", "newreno", "cubic", "bbr",
/// "dctcp") — used for CLI keys, telemetry labels, and reports.
[[nodiscard]] const char* flavor_name(TcpFlavor flavor) noexcept;

/// Inverse of flavor_name; empty optional for unknown names.
[[nodiscard]] std::optional<TcpFlavor> flavor_from_name(std::string_view name) noexcept;

/// All six flavors, in enum order (test/report convenience).
[[nodiscard]] const std::array<TcpFlavor, 6>& all_flavors() noexcept;

/// CUBIC tuning (RFC 8312 defaults).
struct CubicConfig {
  double beta{0.7};             ///< multiplicative decrease factor
  double c{0.4};                ///< cubic scaling constant, packets/sec^3
  bool fast_convergence{true};  ///< release capacity early when shrinking
  bool tcp_friendly{true};      ///< never grow slower than AIMD would
  /// HyStart (RFC 9406, delay-increase variant): leave slow start as soon as
  /// an RTT sample exceeds the lifetime minimum by a margin, instead of
  /// waiting for loss. Deployed CUBIC ships with this on; without it,
  /// β = 0.7 can leave ssthresh *above* the path capacity after the first
  /// overshoot, so the window never reaches congestion avoidance and cycles
  /// through slow-start → burst-loss → RTO forever.
  bool hystart{true};
  double hystart_low_window{16.0};  ///< no exit below this cwnd (packets)
};

/// BBRv1 tuning.
struct BbrConfig {
  double startup_gain{2.885};     ///< 2/ln2: doubles delivered rate per round
  double cwnd_gain{2.0};          ///< cwnd = gain × estimated BDP in ProbeBw
  double full_pipe_growth{1.25};  ///< startup exits after 3 flat rounds
  int bw_filter_rounds{10};       ///< windowed-max filter length, round trips
  sim::SimTime min_rtt_window{sim::SimTime::seconds(10)};
  sim::SimTime probe_rtt_duration{sim::SimTime::milliseconds(200)};
};

/// DCTCP tuning (SIGCOMM 2010 defaults).
struct DctcpConfig {
  double gain{0.0625};       ///< g = 1/16, the alpha EWMA weight
  double initial_alpha{1.0}; ///< conservative: first mark halves the window
};

/// The slice of TcpConfig a strategy needs, decoupled from TcpSource so
/// strategies can be constructed standalone in tests and benchmarks.
struct CcConfig {
  double initial_cwnd{2.0};
  double initial_ssthresh{1e12};
  std::int64_t max_window{1'000'000};
  core::Bytes segment{core::Bytes{1000}};
  CubicConfig cubic{};
  BbrConfig bbr{};
  DctcpConfig dctcp{};
};

/// Connection-state snapshot passed into every strategy hook. Strategies
/// never reach back into TcpSource; this is the whole contract.
struct CcContext {
  sim::SimTime now{};       ///< current simulation time
  sim::SimTime srtt{};      ///< smoothed RTT (zero before the first sample)
  sim::SimTime min_rtt{};   ///< lifetime minimum RTT (zero before a sample)
  bool has_rtt{false};      ///< true once an RTT sample exists
  std::int64_t snd_una{0};  ///< lowest unacknowledged sequence
  std::int64_t snd_nxt{0};  ///< next sequence to send
  std::int64_t in_flight{0};  ///< snd_nxt - snd_una
};

/// Strategy interface. Owns cwnd and ssthresh; every hook mutates them in
/// response to one connection event. Hooks are called by TcpSource at the
/// exact points the pre-refactor code mutated the window, in the same order.
class CongestionControl {
 public:
  explicit CongestionControl(const CcConfig& config) noexcept
      : config_{config}, cwnd_{config.initial_cwnd}, ssthresh_{config.initial_ssthresh} {}
  virtual ~CongestionControl() = default;

  CongestionControl(const CongestionControl&) = delete;
  CongestionControl& operator=(const CongestionControl&) = delete;

  [[nodiscard]] double cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] double ssthresh() const noexcept { return ssthresh_; }
  [[nodiscard]] const CcConfig& config() const noexcept { return config_; }
  [[nodiscard]] virtual bool in_slow_start() const noexcept { return cwnd_ < ssthresh_; }

  /// True if partial ACKs during recovery retransmit the next hole
  /// (NewReno-style, RFC 6582). False exits recovery on any new ACK (Reno).
  [[nodiscard]] virtual bool partial_ack_repair() const noexcept { return true; }
  /// True if a fast-retransmit loss restarts slow start with go-back-N
  /// instead of entering fast recovery (Tahoe).
  [[nodiscard]] virtual bool loss_restarts_slow_start() const noexcept { return false; }
  /// True if the flavor requires pacing regardless of TcpConfig::pacing
  /// (BBR: the model *is* the pacing rate).
  [[nodiscard]] virtual bool wants_pacing() const noexcept { return false; }

  /// Model update on every ACK that advances snd_una, before any recovery
  /// or growth handling. `ecn_echo_count` is the number of CE-marked data
  /// packets the receiver saw since its previous ACK (0 when unmarked).
  /// Default: no-op, so Reno-family floating-point state is untouched.
  virtual void on_ack(const CcContext& ctx, std::int64_t newly_acked,
                      sim::SimTime rtt_sample, std::int32_t ecn_echo_count) {
    (void)ctx;
    (void)newly_acked;
    (void)rtt_sample;
    (void)ecn_echo_count;
  }

  /// Window growth outside recovery. `increments` is newly_acked packets
  /// when TcpConfig::increase_per_acked_packet, else 1 per ACK arrival.
  virtual void on_acked_increase(const CcContext& ctx, std::int64_t increments) = 0;

  /// ECN-Echo seen outside recovery, past the once-per-window guard.
  /// Returns true if the window was reduced (arms the guard and counts an
  /// ecn_reduction); false to ignore the mark (BBRv1 ignores ECN).
  [[nodiscard]] virtual bool on_ecn_reduction(const CcContext& ctx) = 0;

  /// Loss detected by three duplicate ACKs (fast retransmit). Sets ssthresh
  /// and the recovery-entry window.
  virtual void on_loss_detected(const CcContext& ctx) = 0;

  /// Each further duplicate ACK during recovery (window inflation).
  virtual void on_recovery_dup_ack(const CcContext& ctx) {
    (void)ctx;
    cwnd_ += 1.0;
  }

  /// Recovery ends (full ACK, or any new ACK for plain Reno): deflate.
  virtual void on_recovery_exit(const CcContext& ctx) {
    (void)ctx;
    cwnd_ = ssthresh_;
  }

  /// Partial ACK during NewReno-style recovery: deflate by the amount
  /// acknowledged, plus one for the retransmission (RFC 6582).
  virtual void on_recovery_partial_ack(const CcContext& ctx, std::int64_t newly_acked) {
    (void)ctx;
    cwnd_ = std::max(1.0, cwnd_ - static_cast<double>(newly_acked) + 1.0);
  }

  /// Retransmission timeout. `was_in_recovery` mirrors the RFC 5681 rule
  /// that a loss event already accounted for must not reduce ssthresh again.
  virtual void on_timeout(const CcContext& ctx, bool was_in_recovery) = 0;

  /// Interval between paced sends. `srtt_or_fallback` is SRTT once a sample
  /// exists, else TcpConfig::pacing_initial_rtt. The default spreads one
  /// cwnd of packets over one RTT (the pre-refactor formula, bit for bit);
  /// BBR overrides it with pacing_gain × bottleneck bandwidth.
  [[nodiscard]] virtual sim::SimTime pacing_interval(const CcContext& ctx,
                                                     sim::SimTime srtt_or_fallback) const {
    (void)ctx;
    const double window = std::max(cwnd_, 1.0);
    return sim::SimTime::picoseconds(
        static_cast<std::int64_t>(static_cast<double>(srtt_or_fallback.ps()) / window));
  }

 protected:
  CcConfig config_;
  double cwnd_;
  double ssthresh_;
};

/// Tahoe / Reno / NewReno. One class: the three differ only in the two
/// machinery flags and are otherwise the same AIMD arithmetic, kept
/// bitwise-identical to the pre-refactor TcpSource.
class RenoFamilyCc : public CongestionControl {
 public:
  RenoFamilyCc(const CcConfig& config, TcpFlavor flavor) noexcept
      : CongestionControl{config}, flavor_{flavor} {}

  [[nodiscard]] bool partial_ack_repair() const noexcept override {
    return flavor_ == TcpFlavor::kNewReno;
  }
  [[nodiscard]] bool loss_restarts_slow_start() const noexcept override {
    return flavor_ == TcpFlavor::kTahoe;
  }

  void on_acked_increase(const CcContext& ctx, std::int64_t increments) override;
  [[nodiscard]] bool on_ecn_reduction(const CcContext& ctx) override;
  void on_loss_detected(const CcContext& ctx) override;
  void on_timeout(const CcContext& ctx, bool was_in_recovery) override;

 private:
  TcpFlavor flavor_;
};

/// CUBIC (RFC 8312): cubic-in-time window growth around the last loss
/// window, with fast convergence, the TCP-friendly (AIMD-tracking) region,
/// and HyStart (RFC 9406) slow-start exit. Loss machinery is NewReno-style.
class CubicCc final : public CongestionControl {
 public:
  explicit CubicCc(const CcConfig& config) noexcept : CongestionControl{config} {}

  void on_ack(const CcContext& ctx, std::int64_t newly_acked, sim::SimTime rtt_sample,
              std::int32_t ecn_echo_count) override;
  void on_acked_increase(const CcContext& ctx, std::int64_t increments) override;
  [[nodiscard]] bool on_ecn_reduction(const CcContext& ctx) override;
  void on_loss_detected(const CcContext& ctx) override;
  void on_timeout(const CcContext& ctx, bool was_in_recovery) override;

  /// W_max: the window where the last reduction happened (after any fast-
  /// convergence shrink); the plateau of the cubic.
  [[nodiscard]] double w_max() const noexcept { return w_max_; }
  /// K: seconds from epoch start until the cubic returns to W_max.
  [[nodiscard]] double k() const noexcept { return k_; }
  /// The raw cubic W(t) around the current epoch — exposed so tests can pin
  /// the RFC 8312 window function independent of ACK-arrival dynamics.
  [[nodiscard]] double cubic_window(double t_sec) const noexcept;

 private:
  void reduce();  ///< fast convergence + beta cut of ssthresh

  double w_max_{0.0};
  double k_{0.0};
  double w_est_{0.0};          ///< TCP-friendly AIMD estimate
  sim::SimTime epoch_start_{};
  bool epoch_valid_{false};
};

/// BBRv1-style model: windowed-max delivery rate × windowed-min RTT give a
/// BDP estimate; a Startup/Drain/ProbeBw/ProbeRtt state machine modulates
/// the pacing gain. cwnd is only a safety cap (cwnd_gain × BDP); the pacing
/// rate is the primary control. Ignores ECN (like BBRv1); loss keeps packet
/// conservation during recovery but does not collapse the model.
class BbrCc final : public CongestionControl {
 public:
  enum class Phase : std::uint8_t { kStartup, kDrain, kProbeBw, kProbeRtt };

  explicit BbrCc(const CcConfig& config) noexcept;

  [[nodiscard]] bool wants_pacing() const noexcept override { return true; }
  [[nodiscard]] bool in_slow_start() const noexcept override {
    return phase_ == Phase::kStartup;
  }

  void on_ack(const CcContext& ctx, std::int64_t newly_acked, sim::SimTime rtt_sample,
              std::int32_t ecn_echo_count) override;
  void on_acked_increase(const CcContext& ctx, std::int64_t increments) override;
  [[nodiscard]] bool on_ecn_reduction(const CcContext& ctx) override;
  void on_loss_detected(const CcContext& ctx) override;
  void on_recovery_partial_ack(const CcContext& ctx, std::int64_t newly_acked) override;
  void on_recovery_exit(const CcContext& ctx) override;
  void on_timeout(const CcContext& ctx, bool was_in_recovery) override;
  [[nodiscard]] sim::SimTime pacing_interval(const CcContext& ctx,
                                             sim::SimTime srtt_or_fallback) const override;

  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  [[nodiscard]] double pacing_gain() const noexcept { return pacing_gain_; }
  /// Windowed-max delivery rate, packets per second (0 before any round).
  [[nodiscard]] double bandwidth_estimate() const noexcept { return btl_bw_; }
  /// Windowed-min RTT (zero before any sample).
  [[nodiscard]] sim::SimTime min_rtt_estimate() const noexcept { return min_rtt_; }

 private:
  [[nodiscard]] double bdp_estimate() const noexcept;  ///< packets; 0 if unknown
  [[nodiscard]] double target_cwnd() const noexcept;
  void push_bw_sample(double bw) noexcept;
  void advance_state(const CcContext& ctx) noexcept;
  void enter_probe_bw(sim::SimTime now) noexcept;

  Phase phase_{Phase::kStartup};
  double pacing_gain_;
  double cwnd_gain_;

  // Delivery-rate model: per-round delivered/elapsed, max-filtered over the
  // last bw_filter_rounds round trips.
  std::int64_t delivered_{0};
  std::int64_t round_start_delivered_{0};
  std::int64_t round_end_seq_{0};
  std::int64_t round_count_{0};
  sim::SimTime round_start_time_{};
  bool round_time_valid_{false};
  std::deque<std::pair<std::int64_t, double>> bw_window_;  ///< (round, sample) max filter
  double btl_bw_{0.0};  ///< packets per second
  /// Rounds whose end marker lies below this sequence delivered data that
  /// was outstanding at a loss/timeout, where a retransmission that fills a
  /// hole cumulatively ACKs everything the receiver already buffered. Taking
  /// delivered/elapsed over such a round inflates the sample, the max filter
  /// latches it, and the overrated pacing rate feeds more loss — a
  /// self-sustaining spiral. (Real BBR invalidates rate samples on
  /// retransmitted data for the same reason.) Tainted rounds instead sample
  /// delivery over the whole span since the loss event (the taint anchor):
  /// hole-filling jumps amortize out, the sample converges on the true
  /// unique-delivery rate, and stale highs still age out of the max filter.
  std::int64_t bw_suppress_until_seq_{-1};
  sim::SimTime taint_anchor_time_{};
  std::int64_t taint_anchor_delivered_{0};

  // Windowed-min RTT with ProbeRtt refresh.
  sim::SimTime min_rtt_{};
  sim::SimTime min_rtt_stamp_{};
  bool min_rtt_valid_{false};

  // Startup full-pipe detection.
  double full_pipe_bw_{0.0};
  int full_pipe_rounds_{0};
  bool full_pipe_{false};

  // ProbeBw gain cycling / ProbeRtt dwell. The window saved on ProbeRtt
  // entry is restored on exit (bbr_save_cwnd/bbr_restore_cwnd in the
  // reference implementation): the dwell deflates to a token window, and
  // rebuilding +1-per-ACK from there would waste ~8 round trips of pipe.
  int cycle_index_{0};
  sim::SimTime cycle_stamp_{};
  sim::SimTime probe_rtt_start_{};
  double probe_rtt_saved_cwnd_{0.0};

  double prior_cwnd_{0.0};  ///< saved across recovery for restoration
};

/// DCTCP: Reno machinery plus a fractional ECN response. The per-window
/// marked fraction F feeds alpha = (1-g)·alpha + g·F, and each marked
/// window cuts cwnd by alpha/2 instead of 1/2. Pair with step marking at
/// the bottleneck (RedConfig step profile; see apply_cca_profile()).
class DctcpCc final : public CongestionControl {
 public:
  explicit DctcpCc(const CcConfig& config) noexcept
      : CongestionControl{config}, alpha_{config.dctcp.initial_alpha} {}

  void on_ack(const CcContext& ctx, std::int64_t newly_acked, sim::SimTime rtt_sample,
              std::int32_t ecn_echo_count) override;
  void on_acked_increase(const CcContext& ctx, std::int64_t increments) override;
  [[nodiscard]] bool on_ecn_reduction(const CcContext& ctx) override;
  void on_loss_detected(const CcContext& ctx) override;
  void on_timeout(const CcContext& ctx, bool was_in_recovery) override;

  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  std::int64_t window_acked_{0};
  std::int64_t window_marked_{0};
  std::int64_t window_end_{-1};  ///< alpha-update boundary (sequence)
};

/// The strategy for a flavor, held in place: the strategy object lives
/// inside the holder, so a connection's congestion control costs no heap
/// allocation, and every hook is reached through the CongestionControl
/// interface. Neither copyable nor movable, since it points into itself.
class CcHolder {
 public:
  CcHolder(TcpFlavor flavor, const CcConfig& config) noexcept;

  CcHolder(const CcHolder&) = delete;
  CcHolder& operator=(const CcHolder&) = delete;

  [[nodiscard]] CongestionControl& operator*() noexcept { return *cc_; }
  [[nodiscard]] const CongestionControl& operator*() const noexcept { return *cc_; }
  [[nodiscard]] CongestionControl* operator->() noexcept { return cc_; }
  [[nodiscard]] const CongestionControl* operator->() const noexcept { return cc_; }

 private:
  using Strategy = std::variant<RenoFamilyCc, CubicCc, BbrCc, DctcpCc>;
  [[nodiscard]] static Strategy make(TcpFlavor flavor, const CcConfig& config) noexcept;

  Strategy strategy_;
  CongestionControl* cc_;  ///< the active alternative of strategy_
};

}  // namespace rbs::tcp
