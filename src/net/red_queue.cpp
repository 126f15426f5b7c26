#include "net/red_queue.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace rbs::net {

RedQueue::RedQueue(sim::Simulation& sim, std::int64_t limit_packets, RedConfig config)
    : Queue{limit_packets, 1, "RedQueue"}, sim_{sim}, cfg_{config} {
  const auto limit = static_cast<double>(limit_packets);
  min_th_ = cfg_.min_threshold > 0 ? cfg_.min_threshold : std::max(1.0, limit / 4.0);
  max_th_ = cfg_.max_threshold > 0 ? cfg_.max_threshold
                                   : std::max(min_th_ + 1.0, 3.0 * limit / 4.0);
}

void RedQueue::update_average() noexcept {
  const auto q = static_cast<double>(size_packets());
  if (idle_ && cfg_.mean_packet_time_sec > 0) {
    // While the queue was idle, pretend m small packets departed and decay
    // the average accordingly (Floyd's idle-period correction).
    const double idle_sec = (sim_.now() - idle_since_).to_seconds();
    const double m = idle_sec / cfg_.mean_packet_time_sec;
    avg_ *= std::pow(1.0 - cfg_.weight, m);
    avg_ += cfg_.weight * q;  // account for this arrival
  } else {
    avg_ = (1.0 - cfg_.weight) * avg_ + cfg_.weight * q;
  }
  idle_ = false;
}

double RedQueue::drop_probability() const noexcept {
  if (avg_ < min_th_) return 0.0;
  double pb;
  if (avg_ < max_th_) {
    pb = cfg_.max_probability * (avg_ - min_th_) / (max_th_ - min_th_);
  } else if (cfg_.gentle && avg_ < 2.0 * max_th_) {
    pb = cfg_.max_probability +
         (1.0 - cfg_.max_probability) * (avg_ - max_th_) / max_th_;
  } else {
    return 1.0;
  }
  // Spread drops uniformly: p_a = p_b / (1 - count * p_b).
  const double denom = 1.0 - static_cast<double>(count_since_drop_) * pb;
  if (denom <= 0.0) return 1.0;
  return std::min(1.0, pb / denom);
}

void RedQueue::record_drop(const Packet& p, bool early) noexcept {
  reject(p);
  if (early) ++early_drops_;
  count_since_drop_ = 0;
}

bool RedQueue::enqueue(const Packet& p) {
  update_average();

  if (full()) {
    record_drop(p, /*early=*/false);
    return false;
  }

  bool mark = false;
  if (avg_ >= min_th_) {
    ++count_since_drop_;
    if (sim_.rng().bernoulli(drop_probability())) {
      // In ECN mode, mark instead of dropping — unless the average is so
      // high (>= 2*max_th) that marking has lost control (RFC 3168 §7).
      if (cfg_.ecn_marking && p.kind == PacketKind::kTcpData &&
          avg_ < 2.0 * max_th_) {
        mark = true;
        ++marked_;
        count_since_drop_ = 0;
      } else {
        record_drop(p, /*early=*/true);
        return false;
      }
    }
  } else {
    count_since_drop_ = -1;
  }

  Packet queued = p;
  if (mark) queued.ecn_ce = true;
  fifo_.push_back(queued);
  admit(queued);
  return true;
}

std::optional<Packet> RedQueue::dequeue() {
  if (fifo_.empty()) return std::nullopt;
  Packet p = fifo_.front();
  fifo_.pop_front();
  depart(p);
  if (fifo_.empty()) {
    idle_ = true;
    idle_since_ = sim_.now();
  }
  return p;
}

void RedQueue::audit(check::AuditReport& report) const {
  Queue::audit(report);
  std::int64_t actual_bytes = 0;
  std::uint64_t ce_in_queue = 0;
  for (const Packet& p : fifo_) {
    actual_bytes += p.size_bytes;
    if (p.ecn_ce) ++ce_in_queue;
  }
  audit_resident(static_cast<std::int64_t>(fifo_.size()), actual_bytes, report);
  if (!std::isfinite(avg_) || avg_ < 0.0) {
    report.violation("EWMA average queue is invalid: " + std::to_string(avg_));
  }
  if (early_drops_ > stats().dropped_packets) {
    report.violation("early drops " + std::to_string(early_drops_) +
                     " exceed total drops " + std::to_string(stats().dropped_packets));
  }
  if (!cfg_.ecn_marking && (marked_ != 0 || ce_in_queue != 0)) {
    report.violation("CE marks present with ECN marking disabled (" +
                     std::to_string(marked_) + " counted, " + std::to_string(ce_in_queue) +
                     " resident)");
  }
  // Every mark this queue applied is either still resident or has departed;
  // resident CE packets can never outnumber the marks applied. (Arriving
  // packets are never CE already: sources send Not-ECT/ECT(0).)
  if (ce_in_queue > marked_) {
    report.violation(std::to_string(ce_in_queue) + " CE packets resident but only " +
                     std::to_string(marked_) + " ever marked");
  }
  if (min_th_ <= 0.0 || max_th_ <= min_th_) {
    report.violation("thresholds degenerate: min_th " + std::to_string(min_th_) +
                     ", max_th " + std::to_string(max_th_));
  }
}

}  // namespace rbs::net
