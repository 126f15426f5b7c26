#include "net/drop_tail_queue.hpp"

#include <algorithm>

namespace rbs::net {

bool DropTailQueue::enqueue(const Packet& p) {
  peak_backlog_ = std::max(peak_backlog_, size_packets());
  if (full()) {
    reject(p);
    return false;
  }
  fifo_.push_back(p);
  admit(p);
  return true;
}

std::optional<Packet> DropTailQueue::dequeue() {
  if (fifo_.empty()) return std::nullopt;
  Packet p = fifo_.front();
  fifo_.pop_front();
  depart(p);
  return p;
}

void DropTailQueue::audit(check::AuditReport& report) const {
  Queue::audit(report);
  std::int64_t bytes = 0;
  for (const Packet& p : fifo_) bytes += p.size_bytes;
  audit_resident(static_cast<std::int64_t>(fifo_.size()), bytes, report);
}

}  // namespace rbs::net
