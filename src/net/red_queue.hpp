// Random Early Detection queue (Floyd & Jacobson 1993).
//
// The paper states its results are expected to hold for queueing disciplines
// other than drop-tail, RED in particular. This implementation follows the
// classic algorithm: an EWMA of queue length, a linear drop ramp between
// min_th and max_th, the count-based spreading of drops, and the "gentle"
// variant's second ramp between max_th and 2*max_th.
#pragma once

#include "net/packet_ring.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {

/// RED configuration. Defaults follow Floyd's recommended settings, with
/// thresholds derived from the buffer limit when left at zero.
struct RedConfig {
  double weight{0.002};       ///< EWMA weight w_q
  double min_threshold{0};    ///< in packets; 0 → limit/4 (at least 1)
  double max_threshold{0};    ///< in packets; 0 → 3*limit/4
  double max_probability{0.1};
  bool gentle{true};          ///< ramp to 1.0 at 2*max_th instead of a cliff
  double mean_packet_time_sec{0};  ///< service time estimate for idle periods
  /// Mark TCP data packets (ECN CE) instead of early-dropping them, per
  /// RFC 3168; forced overflow drops still drop, and the queue falls back
  /// to dropping above 2*max_th where marking no longer controls the load.
  bool ecn_marking{false};
};

/// FIFO queue with probabilistic early dropping.
class RedQueue final : public Queue {
 public:
  /// Throws std::invalid_argument unless `limit_packets >= 1` (RED derives
  /// its thresholds from a nonzero buffer).
  RedQueue(sim::Simulation& sim, std::int64_t limit_packets, RedConfig config = {});

  bool enqueue(const Packet& p) override;
  std::optional<Packet> dequeue() override;

  /// Current EWMA of the queue length, in packets.
  [[nodiscard]] double average_queue() const noexcept { return avg_; }

  /// Early (probabilistic) drops since the last reset_stats(), excluding
  /// forced overflow drops.
  [[nodiscard]] std::uint64_t early_drops() const noexcept { return early_drops_; }

  /// Also zeroes early_drops(), a subset of stats().dropped_packets.
  void reset_stats() noexcept override {
    Queue::reset_stats();
    early_drops_ = 0;
  }

  /// Packets marked CE instead of dropped (ECN mode only).
  [[nodiscard]] std::uint64_t marked_packets() const noexcept { return marked_; }

  /// Conservation laws plus RED-specific checks: the cached occupancy
  /// matches the FIFO, the EWMA is finite and non-negative, early drops
  /// never exceed total drops, and ECN marks only appear in marking mode.
  void audit(check::AuditReport& report) const override;

 private:
  void update_average() noexcept;
  [[nodiscard]] double drop_probability() const noexcept;
  void record_drop(const Packet& p, bool early) noexcept;

  sim::Simulation& sim_;
  RedConfig cfg_;
  double min_th_;
  double max_th_;

  PacketRing fifo_;
  double avg_{0.0};
  std::int64_t count_since_drop_{-1};  // -1: no packet since last drop
  sim::SimTime idle_since_{sim::SimTime::zero()};
  bool idle_{true};
  std::uint64_t early_drops_{0};
  std::uint64_t marked_{0};
};

}  // namespace rbs::net
