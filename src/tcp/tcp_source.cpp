#include "tcp/tcp_source.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "check/invariant.hpp"
#include "telemetry/trace.hpp"

namespace rbs::tcp {

CcConfig cc_config_from(const TcpConfig& config) noexcept {
  CcConfig cc;
  cc.initial_cwnd = config.initial_cwnd;
  cc.initial_ssthresh = config.initial_ssthresh;
  cc.max_window = config.max_window;
  cc.segment = config.segment;
  cc.cubic = config.cubic;
  cc.bbr = config.bbr;
  cc.dctcp = config.dctcp;
  return cc;
}

TcpSource::TcpSource(sim::Simulation& sim, net::Host& host, net::NodeId dst, net::FlowId flow,
                     TcpConfig config, std::int64_t flow_packets)
    : sim_{sim},
      host_{host},
      dst_{dst},
      flow_{flow},
      config_{config},
      flow_packets_{flow_packets},
      rtt_{config.rtt},
      cc_{config.flavor, cc_config_from(config)} {
  assert(config_.segment.count() > 0);
  assert(config_.initial_cwnd >= 1.0);
  host_.register_agent(flow_, *this);
}

TcpSource::~TcpSource() {
  disarm_timer();
  pace_timer_.cancel();
  host_.unregister_agent(flow_);
}

void TcpSource::start(sim::SimTime at) {
  assert(!started_);
  started_ = true;
  start_time_ = at;
  cwnd_peak_ = cc_->cwnd();
  sim_.at(at, [this] { send_available(); }, sim::EventClass::kWorkload);
}

CcContext TcpSource::cc_ctx() const noexcept {
  CcContext ctx;
  ctx.now = sim_.now();
  ctx.srtt = rtt_.srtt();
  ctx.min_rtt = rtt_.min_rtt();
  ctx.has_rtt = rtt_.has_sample();
  ctx.snd_una = snd_una_;
  ctx.snd_nxt = snd_nxt_;
  ctx.in_flight = packets_in_flight();
  return ctx;
}

std::int64_t TcpSource::effective_window() const noexcept {
  const auto w = static_cast<std::int64_t>(cc_->cwnd());
  return std::min(std::max<std::int64_t>(w, 1), config_.max_window);
}

void TcpSource::send_available() {
  if (finished_) return;
  if (pacing_enabled()) {
    schedule_paced_send();
    return;
  }
  const std::int64_t limit =
      flow_packets_ >= 0 ? std::min(snd_una_ + effective_window(), flow_packets_)
                         : snd_una_ + effective_window();
  const std::int64_t before = snd_nxt_;
  while (snd_nxt_ < limit) {
    transmit(snd_nxt_);
    ++snd_nxt_;
  }
  // Recovery deflation and ECN cuts legitimately leave flight above a
  // freshly shrunken window (it drains back under); the gate invariant is
  // that *newly sent* data never pushes flight past the window.
  RBS_INVARIANT(snd_nxt_ == before || packets_in_flight() <= effective_window(),
                "new data pushed in-flight past the congestion window");
}

sim::SimTime TcpSource::pacing_interval() const noexcept {
  const auto rtt = rtt_.has_sample() ? rtt_.srtt() : config_.pacing_initial_rtt;
  return cc_->pacing_interval(cc_ctx(), rtt);
}

void TcpSource::schedule_paced_send() {
  if (finished_) return;
  const std::int64_t limit =
      flow_packets_ >= 0 ? std::min(snd_una_ + effective_window(), flow_packets_)
                         : snd_una_ + effective_window();
  if (snd_nxt_ >= limit) return;  // window closed; reopened by the next ACK

  const auto earliest = last_paced_send_ + pacing_interval();
  const auto when = std::max(earliest, sim_.now());
  if (pace_timer_.pending()) {
    // Pacing-rate collapse fix: a tick armed under a stale (slower) rate —
    // e.g. the pre-sample pacing_initial_rtt guess, or a BBR gain/bandwidth
    // change — must not delay the next send once the current rate allows an
    // earlier one. Rearm when the freshly computed deadline is sooner; a
    // later deadline keeps the pending (earlier) tick.
    if (when >= pace_deadline_) return;
    pace_timer_.cancel();
  }
  pace_deadline_ = when;
  pace_timer_ = sim_.at(
      when,
      [this] {
        const std::int64_t lim =
            flow_packets_ >= 0 ? std::min(snd_una_ + effective_window(), flow_packets_)
                               : snd_una_ + effective_window();
        if (!finished_ && snd_nxt_ < lim) {
          last_paced_send_ = sim_.now();
          transmit(snd_nxt_);
          ++snd_nxt_;
        }
        schedule_paced_send();
      },
      sim::EventClass::kTcpPacing);
}

void TcpSource::transmit(std::int64_t seq) {
  net::Packet p;
  p.flow = flow_;
  p.kind = net::PacketKind::kTcpData;
  p.src = host_.id();
  p.dst = dst_;
  p.seq = seq;
  p.size_bytes = static_cast<std::int32_t>(config_.segment.count());
  p.timestamp = sim_.now();
  p.retransmit = seq <= max_sent_;

  ++stats_.data_packets_sent;
  if (p.retransmit) ++stats_.retransmissions;
  max_sent_ = std::max(max_sent_, seq);
  host_.send(p);

  if (!timer_.pending()) arm_timer();
}

void TcpSource::on_packet(const net::Packet& p) {
  if (p.kind != net::PacketKind::kTcpAck || finished_) return;
  ++stats_.acks_received;

  // ECN-Echo: react once per window of data (RFC 3168), without
  // retransmitting anything — the packet was delivered, only marked. The
  // strategy decides the cut (halving for Reno, alpha-proportional for
  // DCTCP, ignored by BBR).
  if (p.ecn_ce && !in_recovery_ && snd_una_ > ecn_recover_) {
    if (cc_->on_ecn_reduction(cc_ctx())) {
      ecn_recover_ = snd_nxt_ - 1;
      ++stats_.ecn_reductions;
      RBS_TRACE_INSTANT(sim_.trace(), "tcp", "ecn-cut", sim_.now(),
                        (telemetry::TraceArg{"cwnd", static_cast<std::int64_t>(cc_->cwnd())}),
                        telemetry::TraceArg{}, flow_);
    }
  }

  if (p.ack > snd_una_) {
    handle_new_ack(p.ack, p.timestamp, p.ecn_echo_count);
  } else if (p.ack == snd_una_ && snd_nxt_ > snd_una_) {
    ++stats_.dup_acks_received;
    handle_dup_ack();
  }
  // ACKs below snd_una_ are stale; ignore.

  // Every cwnd increase happens on the ACK path above, so sampling here
  // (plus once at start()) captures the exact high-water mark.
  if (cc_->cwnd() > cwnd_peak_) cwnd_peak_ = cc_->cwnd();
}

void TcpSource::handle_new_ack(std::int64_t ack, sim::SimTime echoed,
                               std::int32_t ecn_echo_count) {
  RBS_INVARIANT(ack <= max_sent_ + 1, "cumulative ACK covers data never transmitted");
  const std::int64_t newly_acked = ack - snd_una_;
  snd_una_ = ack;
  snd_nxt_ = std::max(snd_nxt_, snd_una_);
  RBS_INVARIANT(cc_->cwnd() >= 1.0, "congestion window fell below one segment");

  // Timestamp echo makes every sample unambiguous (Karn-safe): a
  // retransmitted packet carries its own transmission time.
  const sim::SimTime rtt_sample = sim_.now() - echoed;
  rtt_.sample(rtt_sample);

  // Model update (delivery-rate / min-RTT / DCTCP alpha bookkeeping). A
  // no-op for the Reno family, whose state is exactly the pre-strategy
  // window arithmetic below.
  cc_->on_ack(cc_ctx(), newly_acked, rtt_sample, ecn_echo_count);

  if (in_recovery_) {
    if (ack > recover_) {
      // Full ACK: deflate and leave recovery.
      cc_->on_recovery_exit(cc_ctx());
      in_recovery_ = false;
      dup_acks_ = 0;
      partial_ack_seen_ = false;
    } else if (cc_->partial_ack_repair()) {
      // Partial ACK: the next hole is also lost. Retransmit it, deflate by
      // the amount acknowledged, and stay in recovery (RFC 6582).
      cc_->on_recovery_partial_ack(cc_ctx(), newly_acked);
      transmit(snd_una_);
      // "Impatient" variant: only the first partial ACK restarts the
      // retransmit timer. A burst with many holes then falls back to RTO +
      // slow start instead of spending one RTT per hole.
      if (!partial_ack_seen_) {
        partial_ack_seen_ = true;
        arm_timer();
      }
      send_available();
      return;
    } else {
      // Plain Reno leaves recovery on any new ACK.
      cc_->on_recovery_exit(cc_ctx());
      in_recovery_ = false;
      dup_acks_ = 0;
    }
  } else {
    dup_acks_ = 0;
    const std::int64_t increments = config_.increase_per_acked_packet ? newly_acked : 1;
    cc_->on_acked_increase(cc_ctx(), increments);
  }

  if (flow_packets_ >= 0 && snd_una_ >= flow_packets_) {
    complete();
    return;
  }

  if (snd_nxt_ > snd_una_) {
    arm_timer();  // restart for remaining outstanding data
  } else {
    disarm_timer();
  }
  send_available();
}

void TcpSource::handle_dup_ack() {
  if (in_recovery_) {
    cc_->on_recovery_dup_ack(cc_ctx());  // inflation: each dup ACK signals a departure
    send_available();
    return;
  }
  ++dup_acks_;
  // RFC 6582 gate: only treat 3 dup ACKs as a new loss event once the
  // cumulative ACK has passed `recover_`. Dup ACKs generated while holes
  // from a previous loss event (or post-timeout go-back-N resends) are
  // still being repaired must not trigger another window reduction.
  if (dup_acks_ >= 3 && snd_una_ > recover_) {
    enter_fast_recovery();
    return;
  }
  // Limited transmit (RFC 3042): the first two dup ACKs each release one
  // new segment beyond the window, keeping the ACK clock alive for flows
  // whose windows are too small to produce three dup ACKs.
  if (config_.limited_transmit && dup_acks_ <= 2 && snd_una_ > recover_ &&
      (flow_packets_ < 0 || snd_nxt_ < flow_packets_) &&
      snd_nxt_ < snd_una_ + effective_window() + 2) {
    transmit(snd_nxt_);
    ++snd_nxt_;
  }
}

void TcpSource::enter_fast_recovery() {
  ++stats_.fast_retransmits;
  RBS_TRACE_INSTANT(sim_.trace(), "tcp", "fast-retransmit", sim_.now(),
                    (telemetry::TraceArg{"seq", snd_una_}),
                    (telemetry::TraceArg{"cwnd", static_cast<std::int64_t>(cc_->cwnd())}), flow_);
  cc_->on_loss_detected(cc_ctx());
  recover_ = snd_nxt_ - 1;
  if (cc_->loss_restarts_slow_start()) {
    // Tahoe: retransmit and restart from slow start; no recovery phase.
    in_recovery_ = false;
    dup_acks_ = 0;
    snd_nxt_ = snd_una_;  // go-back-N, as after a timeout
    send_available();
    arm_timer();
    return;
  }
  in_recovery_ = true;
  partial_ack_seen_ = false;
  transmit(snd_una_);
  arm_timer();
}

void TcpSource::on_timeout() {
  if (finished_) return;
  ++stats_.timeouts;
  RBS_TRACE_INSTANT(sim_.trace(), "tcp", "timeout", sim_.now(),
                    (telemetry::TraceArg{"seq", snd_una_}),
                    (telemetry::TraceArg{"cwnd", static_cast<std::int64_t>(cc_->cwnd())}), flow_);
  rtt_.backoff();

  cc_->on_timeout(cc_ctx(), in_recovery_);
  dup_acks_ = 0;
  in_recovery_ = false;
  partial_ack_seen_ = false;
  recover_ = snd_nxt_ - 1;

  // Go-back-N: resume from the cumulative-ACK point. Anything the receiver
  // already holds is re-covered by the jump in its cumulative ACK.
  snd_nxt_ = snd_una_;
  send_available();
  arm_timer();
}

void TcpSource::arm_timer() {
  disarm_timer();
  timer_ = sim_.after(rtt_.rto(), [this] { on_timeout(); }, sim::EventClass::kTcpTimer);
}

void TcpSource::disarm_timer() { timer_.cancel(); }

void TcpSource::complete() {
  finished_ = true;
  finish_time_ = sim_.now();
  disarm_timer();
  pace_timer_.cancel();
  if (on_complete_) on_complete_(*this);
}

void TcpSource::audit(check::AuditReport& report) const {
  if (snd_una_ < 0 || snd_una_ > snd_nxt_ || snd_nxt_ > max_sent_ + 1) {
    report.violation("sequence ordering broken: snd_una " + std::to_string(snd_una_) +
                     ", snd_nxt " + std::to_string(snd_nxt_) + ", max_sent " +
                     std::to_string(max_sent_));
  }
  if (!std::isfinite(cc_->cwnd()) || cc_->cwnd() < 1.0) {
    report.violation("congestion window invalid: " + std::to_string(cc_->cwnd()));
  }
  if (!std::isfinite(cc_->ssthresh()) || cc_->ssthresh() <= 0.0) {
    report.violation("ssthresh invalid: " + std::to_string(cc_->ssthresh()));
  }
  // +2: limited transmit may legitimately send two segments past the window.
  if (packets_in_flight() > config_.max_window + 2) {
    report.violation("in-flight " + std::to_string(packets_in_flight()) +
                     " exceeds the receiver window " + std::to_string(config_.max_window));
  }
  if (flow_packets_ >= 0 && snd_nxt_ > flow_packets_) {
    report.violation("snd_nxt " + std::to_string(snd_nxt_) + " past the flow length " +
                     std::to_string(flow_packets_));
  }
  if (finished_ && flow_packets_ >= 0 && snd_una_ < flow_packets_) {
    report.violation("flow finished with only " + std::to_string(snd_una_) + " of " +
                     std::to_string(flow_packets_) + " packets acknowledged");
  }
  if (stats_.retransmissions > stats_.data_packets_sent) {
    report.violation("retransmissions " + std::to_string(stats_.retransmissions) +
                     " exceed total sends " + std::to_string(stats_.data_packets_sent));
  }
  if (stats_.dup_acks_received > stats_.acks_received) {
    report.violation("dup ACKs " + std::to_string(stats_.dup_acks_received) +
                     " exceed total ACKs " + std::to_string(stats_.acks_received));
  }
  if (!started_ && (snd_nxt_ != 0 || max_sent_ != -1)) {
    report.violation("data transmitted before start()");
  }
}

}  // namespace rbs::tcp
