// Drop-tail FIFO queue — the discipline the paper's routers use.
#pragma once

#include "net/packet_ring.hpp"
#include "net/queue.hpp"

namespace rbs::net {

/// FIFO queue that drops arriving packets once `limit` packets are queued.
class DropTailQueue final : public Queue {
 public:
  /// `limit_packets` is the buffer size B in packets (the unit used
  /// throughout the paper). A negative limit throws std::invalid_argument.
  explicit DropTailQueue(std::int64_t limit_packets)
      : Queue{limit_packets, 0, "DropTailQueue"} {}

  bool enqueue(const Packet& p) override;
  std::optional<Packet> dequeue() override;

  /// Largest backlog (packets queued) any arrival has found since
  /// construction; reset_stats() leaves it alone. An arrival is dropped
  /// exactly when it finds `limit` packets, so a peak below the limit means
  /// nothing was ever dropped, and every limit above the peak would have
  /// made the same decisions.
  [[nodiscard]] std::int64_t peak_backlog_packets() const noexcept { return peak_backlog_; }

  /// Conservation laws plus a recount of the FIFO.
  void audit(check::AuditReport& report) const override;

 private:
  std::int64_t peak_backlog_{0};
  PacketRing fifo_;
};

}  // namespace rbs::net
