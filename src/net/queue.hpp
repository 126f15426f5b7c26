// Queue discipline interface for router output buffers.
//
// A Queue holds packets awaiting transmission on a link. The packet currently
// being serialized has already left the queue (as in ns-2), so a queue
// "limit" of B packets means B packets of buffering in addition to the one in
// service. Implementations decide the drop policy (drop-tail, RED, ...); the
// base class owns the limit, the occupancy and the counters, and every
// discipline moves packets through the same four transitions.
#pragma once

#include <cstdint>
#include <optional>

#include "check/auditor.hpp"
#include "check/invariant.hpp"
#include "net/packet.hpp"

namespace rbs::net {

/// Running totals every queue maintains. Enqueue attempts are either
/// accepted or dropped; bytes/packets track current occupancy. Accepted
/// traffic obeys two conservation laws the invariant auditor enforces:
///   enqueued_packets == dequeued_packets + evicted_packets + resident packets
///   enqueued_bytes   == dequeued_bytes   + evicted_bytes   + resident bytes
/// Evictions are drops of *resident* (already-accepted) packets — DRR's
/// longest-queue drop — as opposed to arrival drops; they count in both
/// dropped_* and evicted_*.
struct QueueStats {
  std::uint64_t enqueued_packets{0};
  std::uint64_t dropped_packets{0};
  std::uint64_t dequeued_packets{0};
  std::uint64_t evicted_packets{0};
  std::uint64_t enqueued_bytes{0};
  std::uint64_t dropped_bytes{0};
  std::uint64_t dequeued_bytes{0};
  std::uint64_t evicted_bytes{0};

  [[nodiscard]] double drop_fraction() const noexcept {
    const auto offered = enqueued_packets + dropped_packets;
    return offered == 0 ? 0.0 : static_cast<double>(dropped_packets) / static_cast<double>(offered);
  }
};

/// Buffer with a drop policy and a packet limit fixed at construction.
class Queue {
 public:
  virtual ~Queue() = default;

  /// Offers `p` to the queue. Returns false (and counts a drop) if the
  /// policy rejects it.
  virtual bool enqueue(const Packet& p) = 0;

  /// Removes and returns the next packet to transmit, or nullopt if empty.
  virtual std::optional<Packet> dequeue() = 0;

  /// Current occupancy in packets.
  [[nodiscard]] std::int64_t size_packets() const noexcept { return packets_; }

  /// Current occupancy in bytes.
  [[nodiscard]] std::int64_t size_bytes() const noexcept { return bytes_; }

  /// Configured capacity in packets.
  [[nodiscard]] std::int64_t limit_packets() const noexcept { return limit_; }

  /// Checks the QueueStats conservation laws and non-negative occupancy.
  /// Disciplines extend it with a recount of what they actually hold
  /// (audit_resident) and their own bookkeeping (RED marks, DRR flows).
  virtual void audit(check::AuditReport& report) const;

  [[nodiscard]] const QueueStats& stats() const noexcept { return stats_; }
  /// Zeroes the counters (occupancy stays); disciplines with counters of
  /// their own that the audit compares against QueueStats reset them too.
  virtual void reset_stats() noexcept {
    stats_ = QueueStats{};
    audit_carry_packets_ = static_cast<std::uint64_t>(packets_);
    audit_carry_bytes_ = static_cast<std::uint64_t>(bytes_);
  }

  /// Test-only: skews the cached byte occupancy without touching the stored
  /// packets, simulating an accounting bug for negative tests of the auditor.
  void corrupt_byte_accounting_for_test(std::int64_t delta) noexcept { bytes_ += delta; }

 protected:
  /// Throws std::invalid_argument unless `limit >= min_limit`; `discipline`
  /// names the queue in the message.
  Queue(std::int64_t limit, std::int64_t min_limit, const char* discipline);

  [[nodiscard]] bool full() const noexcept { return packets_ >= limit_; }

  /// An arrival joins the queue.
  void admit(const Packet& p) noexcept {
    ++packets_;
    bytes_ += p.size_bytes;
    ++stats_.enqueued_packets;
    stats_.enqueued_bytes += static_cast<std::uint64_t>(p.size_bytes);
    RBS_INVARIANT(packets_ <= limit_, "occupancy exceeds the buffer limit after enqueue");
  }

  /// An arrival is dropped without ever joining the queue.
  void reject(const Packet& p) noexcept {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
  }

  /// A resident packet leaves for the link.
  void depart(const Packet& p) noexcept {
    --packets_;
    bytes_ -= p.size_bytes;
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += static_cast<std::uint64_t>(p.size_bytes);
    RBS_INVARIANT(packets_ >= 0 && bytes_ >= 0, "occupancy went negative on dequeue");
    RBS_INVARIANT(packets_ != 0 || bytes_ == 0, "empty queue with a nonzero byte count");
  }

  /// A resident packet is dropped to make room (counts as a drop too).
  void evict(const Packet& p) noexcept {
    --packets_;
    bytes_ -= p.size_bytes;
    ++stats_.dropped_packets;
    stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
    ++stats_.evicted_packets;
    stats_.evicted_bytes += static_cast<std::uint64_t>(p.size_bytes);
  }

  /// Reports a violation unless the packets and bytes the discipline
  /// recounted from its storage match the cached occupancy.
  void audit_resident(std::int64_t packets, std::int64_t bytes,
                      check::AuditReport& report) const;

 private:
  // limit_ sits between the two occupancy counters: adjacent, GCC fuses
  // depart()'s two updates into one 16-byte load and store, and that load
  // cannot be forwarded from admit()'s two 8-byte stores, which stalls a
  // dequeue that closely follows an enqueue (+5 ns per packet in
  // BM_DropTailEnqueueDequeue).
  std::int64_t packets_{0};
  std::int64_t limit_;
  std::int64_t bytes_{0};
  QueueStats stats_;
  /// Occupancy at the last reset_stats(); keeps the audit conservation laws
  /// exact across mid-run counter resets (warmup cutovers).
  std::uint64_t audit_carry_packets_{0};
  std::uint64_t audit_carry_bytes_{0};
};

}  // namespace rbs::net
