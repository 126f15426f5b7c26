// Drop-tail FIFO queue — the discipline the paper's routers use.
#pragma once


#include "core/units.hpp"
#include "net/packet_ring.hpp"
#include "net/queue.hpp"

namespace rbs::net {

/// FIFO queue that drops arriving packets once `limit` packets (or,
/// optionally, `limit_bytes` bytes) are queued.
class DropTailQueue final : public Queue {
 public:
  /// `limit_packets` is the buffer size B in packets (the unit used
  /// throughout the paper). `limit_bytes` adds a byte ceiling as real
  /// interface queues have; zero disables it. Negative limits throw
  /// std::invalid_argument.
  explicit DropTailQueue(std::int64_t limit_packets,
                         core::Bytes limit_bytes = core::Bytes::zero());

  bool enqueue(const Packet& p) override;
  std::optional<Packet> dequeue() override;

  [[nodiscard]] std::int64_t size_packets() const noexcept override {
    return static_cast<std::int64_t>(fifo_.size());
  }
  [[nodiscard]] std::int64_t size_bytes() const noexcept override { return bytes_; }
  [[nodiscard]] std::int64_t limit_packets() const noexcept override { return limit_; }

  /// Throws std::invalid_argument on a negative limit. Lowering the limit
  /// below the current occupancy keeps resident packets (no retroactive
  /// drop); arrivals are rejected until the backlog drains below the new
  /// limit.
  void set_limit_packets(std::int64_t limit) override;

  [[nodiscard]] core::Bytes limit_bytes() const noexcept { return limit_bytes_; }

  /// Largest backlog (packets queued) any arrival has found since
  /// construction; reset_stats() leaves it alone. Without a byte ceiling
  /// an arrival is dropped exactly when it finds `limit` packets, so a peak
  /// below the limit means nothing was ever dropped, and every limit above
  /// the peak would have made the same decisions.
  [[nodiscard]] std::int64_t peak_backlog_packets() const noexcept { return peak_backlog_; }

  /// Byte-ceiling counterpart of set_limit_packets: negative throws, zero
  /// disables the ceiling, lowering never drops resident packets.
  void set_limit_bytes(core::Bytes limit_bytes);

  /// Recounts the FIFO against the cached byte total and the conservation
  /// stats.
  void audit(check::AuditReport& report) const override;

  /// Test-only: skews the cached byte counter without touching the FIFO,
  /// simulating an accounting bug for negative tests of the auditor.
  void corrupt_byte_accounting_for_test(std::int64_t delta) noexcept { bytes_ += delta; }

 private:
  std::int64_t limit_;
  core::Bytes limit_bytes_;
  std::int64_t bytes_{0};
  std::int64_t peak_backlog_{0};
  PacketRing fifo_;
};

}  // namespace rbs::net
