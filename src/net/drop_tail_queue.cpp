#include "net/drop_tail_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "check/invariant.hpp"

namespace rbs::net {

DropTailQueue::DropTailQueue(std::int64_t limit_packets, core::Bytes limit_bytes)
    : limit_{limit_packets}, limit_bytes_{limit_bytes} {
  if (limit_packets < 0) {
    throw std::invalid_argument("DropTailQueue: negative packet limit " +
                                std::to_string(limit_packets));
  }
  if (limit_bytes < core::Bytes::zero()) {
    throw std::invalid_argument("DropTailQueue: negative byte limit " +
                                std::to_string(limit_bytes.count()));
  }
}

bool DropTailQueue::enqueue(const Packet& p) {
  const auto backlog = static_cast<std::int64_t>(fifo_.size());
  peak_backlog_ = std::max(peak_backlog_, backlog);
  if (backlog >= limit_ ||
      (!limit_bytes_.is_zero() &&
       core::Bytes{bytes_ + p.size_bytes} > limit_bytes_)) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
    return false;
  }
  fifo_.push_back(p);
  bytes_ += p.size_bytes;
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += static_cast<std::uint64_t>(p.size_bytes);
  RBS_INVARIANT(bytes_ >= p.size_bytes, "byte counter fell below the packet just queued");
  return true;
}

std::optional<Packet> DropTailQueue::dequeue() {
  if (fifo_.empty()) return std::nullopt;
  Packet p = fifo_.front();
  fifo_.pop_front();
  bytes_ -= p.size_bytes;
  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += static_cast<std::uint64_t>(p.size_bytes);
  RBS_INVARIANT(bytes_ >= 0, "byte counter went negative on dequeue");
  RBS_INVARIANT(!fifo_.empty() || bytes_ == 0, "empty FIFO with a nonzero byte counter");
  return p;
}

void DropTailQueue::set_limit_packets(std::int64_t limit) {
  if (limit < 0) {
    throw std::invalid_argument("DropTailQueue: negative packet limit " +
                                std::to_string(limit));
  }
  // Lowering below the current occupancy is legal: resident packets drain
  // naturally, enqueue() rejects arrivals until the backlog fits again.
  limit_ = limit;
}

void DropTailQueue::set_limit_bytes(core::Bytes limit_bytes) {
  if (limit_bytes < core::Bytes::zero()) {
    throw std::invalid_argument("DropTailQueue: negative byte limit " +
                                std::to_string(limit_bytes.count()));
  }
  limit_bytes_ = limit_bytes;
}

void DropTailQueue::audit(check::AuditReport& report) const {
  Queue::audit(report);
  std::int64_t actual_bytes = 0;
  for (const Packet& p : fifo_) actual_bytes += p.size_bytes;
  if (actual_bytes != bytes_) {
    report.violation("cached byte counter " + std::to_string(bytes_) +
                     " != FIFO contents " + std::to_string(actual_bytes) + " bytes");
  }
}

}  // namespace rbs::net
