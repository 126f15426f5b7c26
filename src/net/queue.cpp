#include "net/queue.hpp"

#include <stdexcept>
#include <string>

namespace rbs::net {

Queue::Queue(std::int64_t limit, std::int64_t min_limit, const char* discipline) : limit_{limit} {
  if (limit < min_limit) {
    throw std::invalid_argument(std::string{discipline} + ": packet limit must be >= " +
                                std::to_string(min_limit) + ", got " + std::to_string(limit));
  }
}

void Queue::audit(check::AuditReport& report) const {
  // Packets resident when stats were last reset (audit_carry_*) still
  // dequeue after the reset, so they sit on the enqueued side of the law.
  const auto resident_packets = static_cast<std::uint64_t>(packets_);
  const auto resident_bytes = static_cast<std::uint64_t>(bytes_);
  if (stats_.enqueued_packets + audit_carry_packets_ !=
      stats_.dequeued_packets + stats_.evicted_packets + resident_packets) {
    report.violation("packet conservation broken: enqueued " +
                     std::to_string(stats_.enqueued_packets) + " + carried " +
                     std::to_string(audit_carry_packets_) + " != dequeued " +
                     std::to_string(stats_.dequeued_packets) + " + evicted " +
                     std::to_string(stats_.evicted_packets) + " + resident " +
                     std::to_string(resident_packets));
  }
  if (stats_.enqueued_bytes + audit_carry_bytes_ !=
      stats_.dequeued_bytes + stats_.evicted_bytes + resident_bytes) {
    report.violation("byte conservation broken: enqueued " +
                     std::to_string(stats_.enqueued_bytes) + " + carried " +
                     std::to_string(audit_carry_bytes_) + " != dequeued " +
                     std::to_string(stats_.dequeued_bytes) + " + evicted " +
                     std::to_string(stats_.evicted_bytes) + " + resident " +
                     std::to_string(resident_bytes));
  }
  if (packets_ < 0 || bytes_ < 0) {
    report.violation("negative occupancy: " + std::to_string(packets_) + " packets / " +
                     std::to_string(bytes_) + " bytes");
  }
}

void Queue::audit_resident(std::int64_t packets, std::int64_t bytes,
                           check::AuditReport& report) const {
  if (packets != packets_ || bytes != bytes_) {
    report.violation("cached occupancy " + std::to_string(packets_) + " pkts/" +
                     std::to_string(bytes_) + " B != stored packets " + std::to_string(packets) +
                     " pkts/" + std::to_string(bytes) + " B");
  }
}

}  // namespace rbs::net
