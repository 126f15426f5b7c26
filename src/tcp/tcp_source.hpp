// TCP sender at packet granularity: the shared machinery (sequence
// bookkeeping, fast retransmit, fast recovery, RFC 6298 retransmission
// timeouts, limited transmit, pacing) with every congestion decision
// delegated to a pluggable CongestionControl strategy — Tahoe / Reno /
// NewReno (the paper's flavors, bitwise-identical to the pre-strategy code),
// CUBIC, a BBRv1-style rate model, and DCTCP. See docs/congestion_control.md.
//
// Windows are counted in packets (MSS units), matching the paper. The flow
// either sends forever (long-lived, the paper's §2–3) or exactly
// `flow_packets` segments (short flows, §4), invoking a completion callback
// when the last segment is acknowledged.
#pragma once

#include <cstdint>
#include <functional>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/rtt_estimator.hpp"

namespace rbs::tcp {

/// Sender-side counters for analysis.
struct TcpSourceStats {
  std::uint64_t data_packets_sent{0};  ///< including retransmissions
  std::uint64_t retransmissions{0};
  std::uint64_t fast_retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t acks_received{0};
  std::uint64_t dup_acks_received{0};
  std::uint64_t ecn_reductions{0};  ///< window reductions from ECN-Echo

  TcpSourceStats& operator+=(const TcpSourceStats& o) noexcept {
    data_packets_sent += o.data_packets_sent;
    retransmissions += o.retransmissions;
    fast_retransmits += o.fast_retransmits;
    timeouts += o.timeouts;
    acks_received += o.acks_received;
    dup_acks_received += o.dup_acks_received;
    ecn_reductions += o.ecn_reductions;
    return *this;
  }
  /// Counter deltas, e.g. over a measurement window (`later - earlier`).
  friend TcpSourceStats operator-(TcpSourceStats a, const TcpSourceStats& b) noexcept {
    a.data_packets_sent -= b.data_packets_sent;
    a.retransmissions -= b.retransmissions;
    a.fast_retransmits -= b.fast_retransmits;
    a.timeouts -= b.timeouts;
    a.acks_received -= b.acks_received;
    a.dup_acks_received -= b.dup_acks_received;
    a.ecn_reductions -= b.ecn_reductions;
    return a;
  }
};

/// One TCP connection's sender.
class TcpSource final : public net::Agent {
 public:
  /// Invoked once when the final segment of a finite flow is acknowledged.
  /// Must not destroy the source synchronously; defer destruction with
  /// Simulation::after(0, ...) if needed.
  using CompletionCallback = std::function<void(TcpSource&)>;

  /// Registers on `host` for `flow`; data is addressed to node `dst`
  /// (the host where the matching TcpSink lives).
  /// `flow_packets` < 0 means long-lived (never completes). Throws
  /// std::invalid_argument for a segment outside [1, net::kMaxPacketBytes]
  /// bytes, an initial_cwnd that is not finite or is below 1, or a
  /// max_window below 1.
  TcpSource(sim::Simulation& sim, net::Host& host, net::NodeId dst, net::FlowId flow,
            TcpConfig config, std::int64_t flow_packets = -1);
  ~TcpSource() override;

  TcpSource(const TcpSource&) = delete;
  TcpSource& operator=(const TcpSource&) = delete;

  /// Begins transmitting at absolute time `at` (>= now).
  void start(sim::SimTime at);

  /// Handles incoming ACKs.
  void on_packet(const net::Packet& p) override;

  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }

  // --- Observability -------------------------------------------------------
  [[nodiscard]] double cwnd() const noexcept { return cc_->cwnd(); }
  /// High-water congestion window over the connection's lifetime, in
  /// packets. Tracked outside TcpSourceStats so the experiment-layer stats
  /// delta arithmetic (which subtracts warmup counters field by field) never
  /// sees it — a peak is not a counter and must not be differenced.
  [[nodiscard]] double cwnd_peak() const noexcept { return cwnd_peak_; }
  [[nodiscard]] double ssthresh() const noexcept { return cc_->ssthresh(); }
  [[nodiscard]] bool in_slow_start() const noexcept { return cc_->in_slow_start(); }
  [[nodiscard]] bool in_recovery() const noexcept { return in_recovery_; }
  [[nodiscard]] std::int64_t packets_in_flight() const noexcept { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::int64_t snd_una() const noexcept { return snd_una_; }
  [[nodiscard]] std::int64_t snd_nxt() const noexcept { return snd_nxt_; }
  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] sim::SimTime start_time() const noexcept { return start_time_; }
  [[nodiscard]] sim::SimTime finish_time() const noexcept { return finish_time_; }
  [[nodiscard]] std::int64_t flow_packets() const noexcept { return flow_packets_; }
  [[nodiscard]] net::FlowId flow() const noexcept { return flow_; }
  [[nodiscard]] const TcpSourceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const RttEstimator& rtt_estimator() const noexcept { return rtt_; }
  [[nodiscard]] const TcpConfig& config() const noexcept { return config_; }
  /// The congestion-control strategy (read access for telemetry and tests).
  [[nodiscard]] const CongestionControl& congestion_control() const noexcept { return *cc_; }

  /// Checks sender invariants that hold at any event boundary: sequence
  /// ordering (0 <= snd_una <= snd_nxt <= max_sent+1), cwnd >= 1 MSS and
  /// finite, in-flight bounded by the receiver window (+2 for limited
  /// transmit), finite flows never sending past their length, and counter
  /// sanity (retransmissions <= sends, dup ACKs <= ACKs). The strict
  /// in-flight <= cwnd bound is enforced at the send gate by RBS_INVARIANT
  /// instead: ECN cuts and recovery deflation legitimately leave flight
  /// above a freshly shrunken window until it drains.
  void audit(check::AuditReport& report) const;

  /// Test-only: breaks sequence-number ordering (snd_una ahead of snd_nxt)
  /// so negative tests can prove the auditor catches in-flight corruption.
  void corrupt_in_flight_for_test() noexcept { snd_una_ = snd_nxt_ + 1; }

 private:
  void send_available();
  void schedule_paced_send();
  [[nodiscard]] bool pacing_enabled() const noexcept {
    return config_.pacing || cc_->wants_pacing();
  }
  [[nodiscard]] CcContext cc_ctx() const noexcept;
  [[nodiscard]] sim::SimTime pacing_interval() const noexcept;
  void transmit(std::int64_t seq);
  void handle_new_ack(std::int64_t ack, sim::SimTime echoed, std::int32_t ecn_echo_count);
  void handle_dup_ack();
  void enter_fast_recovery();
  void on_timeout();
  void arm_timer();
  void disarm_timer();
  void complete();
  [[nodiscard]] std::int64_t effective_window() const noexcept;

  sim::Simulation& sim_;
  net::Host& host_;
  net::NodeId dst_;
  net::FlowId flow_;
  TcpConfig config_;
  std::int64_t flow_packets_;

  // Shared machinery state. Sequence numbers count packets. The congestion
  // window itself lives in cc_.
  std::int64_t snd_una_{0};   ///< lowest unacknowledged
  std::int64_t snd_nxt_{0};   ///< next to send
  std::int64_t max_sent_{-1}; ///< highest sequence ever transmitted
  double cwnd_peak_{0.0};
  int dup_acks_{0};
  bool in_recovery_{false};
  bool partial_ack_seen_{false};  ///< impatient-timer state (RFC 6582)
  std::int64_t recover_{-1};  ///< highest outstanding seq when loss detected
  std::int64_t ecn_recover_{-1};  ///< once-per-window guard for ECN reductions

  RttEstimator rtt_;
  sim::Scheduler::EventHandle timer_;
  sim::Scheduler::EventHandle pace_timer_;
  sim::SimTime last_paced_send_{};
  sim::SimTime pace_deadline_{};  ///< fire time of the pending pace tick

  bool started_{false};
  bool finished_{false};
  sim::SimTime start_time_{};
  sim::SimTime finish_time_{};
  TcpSourceStats stats_;
  CompletionCallback on_complete_;
  /// The strategy, in place. Last, so the machinery fields above stay
  /// together ahead of its few hundred bytes (BBR's is the largest).
  CcHolder cc_;
};

}  // namespace rbs::tcp
