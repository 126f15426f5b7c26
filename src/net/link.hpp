// Unidirectional point-to-point link with an output buffer.
//
// A Link models the output port of the upstream device: packets offered to it
// are serialized at the link rate, one at a time; packets arriving while the
// link is busy wait in the attached Queue (or are dropped by its policy).
// After serialization a packet propagates for the configured delay and is
// delivered to the downstream sink. As in ns-2, the packet in service has
// left the queue, so a B-packet queue buffers B packets beyond the one on
// the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/units.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {

/// Counters a Link accumulates; the basis of utilization measurement.
struct LinkStats {
  std::uint64_t packets_delivered{0};  ///< finished serialization
  std::uint64_t bits_delivered{0};
  sim::SimTime busy_time{};  ///< total time spent serializing
};

/// Packets lost to injected faults rather than queue policy. Kept separate
/// from LinkStats/QueueStats so conservation audits and the paper's drop
/// metrics are not polluted by fault-layer losses.
struct LinkFaultStats {
  std::uint64_t down_drops{0};      ///< offered while the link was down
  std::uint64_t inflight_drops{0};  ///< on the wire when the link went down
  std::uint64_t flushed_packets{0}; ///< evicted from the queue on a down edge
  std::uint64_t loss_drops{0};      ///< corrupted by an active loss burst
  [[nodiscard]] std::uint64_t total() const noexcept {
    return down_drops + inflight_drops + flushed_packets + loss_drops;
  }
};

/// One direction of a point-to-point link. Cache-line aligned, so a link
/// built in a topology's link block starts on a line of its own.
class alignas(64) Link final : public PacketSink {
 public:
  struct Config {
    core::BitsPerSec rate{core::BitsPerSec::gigabits(1)};
    sim::SimTime propagation{};
  };

  /// `queue` buffers packets while the link is busy; `downstream` receives
  /// them after serialization + propagation. `downstream` must outlive the
  /// link. Throws std::invalid_argument unless the rate is positive and
  /// finite and the propagation delay is not negative.
  Link(sim::Simulation& sim, std::string name, Config config, Queue& queue,
       PacketSink& downstream);
  /// As above, but the link owns `queue` (which must not be null).
  Link(sim::Simulation& sim, std::string name, Config config, std::unique_ptr<Queue> queue,
       PacketSink& downstream);
  ~Link() override;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a packet for transmission (possibly queueing or dropping it).
  void receive(const Packet& p) override;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] core::BitsPerSec rate() const noexcept { return config_.rate; }
  /// Raw scalar for dimensionless math (utilization ratios, reporting).
  [[nodiscard]] double rate_bps() const noexcept { return config_.rate.bps(); }
  [[nodiscard]] sim::SimTime propagation() const noexcept { return config_.propagation; }
  [[nodiscard]] Queue& queue() noexcept { return *queue_; }
  [[nodiscard]] const Queue& queue() const noexcept { return *queue_; }
  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool busy() const noexcept { return busy_; }

  // --- Fault hooks (driven by fault::FaultInjector; see docs/faults.md) ----
  //
  // All hooks are idempotent and safe to call at any simulated time. They
  // only mutate link-local state and emit `faults.*` metrics — an unfaulted
  // link pays a single boolean/double check per packet.

  /// Takes the link down: the in-service packet and everything already on
  /// the wire are lost (counted as fault drops), the queue is flushed
  /// through its normal dequeue path (counted as flushed), and packets
  /// offered while down are dropped on arrival.
  void fault_down();
  /// Restores a downed link. Traffic resumes with the next offered packet
  /// (TCP recovers via its own RTO machinery).
  void fault_up();
  /// Scales the serialization rate by `factor` (> 0). 1.0 restores normal.
  /// A packet whose serialization would then end past the SimTime range
  /// never ends: the link stalls on it until fault_down().
  void fault_set_rate_factor(double factor);
  /// Adds `extra` to the propagation delay (zero() restores normal).
  void fault_set_extra_propagation(sim::SimTime extra);
  /// Drops each offered packet independently with probability `p`,
  /// upstream of the queue (so these are corruption losses, not congestion
  /// drops). Draws come from `rng`, which must outlive the burst; pass
  /// p = 0 to end a burst.
  void fault_set_loss(double p, sim::Rng* rng);
  /// Freezes/unfreezes queue service: the packet in service finishes, then
  /// nothing more is dequeued until unfreeze. Arrivals keep queueing and
  /// overflow under the normal drop policy.
  void fault_set_frozen(bool frozen);

  [[nodiscard]] bool fault_is_down() const noexcept { return fault_down_; }
  [[nodiscard]] bool fault_is_frozen() const noexcept { return fault_frozen_; }
  [[nodiscard]] double fault_rate_factor() const noexcept { return fault_rate_factor_; }
  [[nodiscard]] sim::SimTime fault_extra_propagation() const noexcept {
    return fault_extra_propagation_;
  }
  [[nodiscard]] double fault_loss_probability() const noexcept { return fault_loss_p_; }
  [[nodiscard]] const LinkFaultStats& fault_stats() const noexcept { return fault_stats_; }

  /// Queue occupancy including the packet in service, in packets — the value
  /// plotted as Q(t) in the paper's figures.
  [[nodiscard]] std::int64_t occupancy_packets() const noexcept {
    return queue_->size_packets() + (busy_ ? 1 : 0);
  }

  void reset_stats() noexcept {
    stats_ = LinkStats{};
    queue_->reset_stats();
  }

  /// Observation hooks (may be empty). `on_delivered` fires when a packet
  /// finishes serialization; `on_drop` when the queue rejects one;
  /// `on_queue_delay` reports each delivered packet's time at this hop
  /// (queueing + serialization).
  std::function<void(const Packet&)> on_delivered;
  std::function<void(const Packet&)> on_drop;
  std::function<void(sim::SimTime)> on_queue_delay;

 private:
  void start_transmission(const Packet& p);
  void finish_transmission(const Packet& p);
  void maybe_resume_service();
  void count_fault_drop(const char* reason, std::uint64_t LinkFaultStats::* counter);

  /// Lazily interned "<name>/qlen" counter-track name for trace events
  /// (interned storage outlives the link, so exports never dangle). Null
  /// while no trace session is attached.
  const char* trace_qlen_name();

  sim::Simulation& sim_;
  std::string name_;
  Config config_;
  /// The queue, borrowed from the topology or owned (`owns_queue_`). A
  /// flag rather than a second, owning pointer: it fits in padding, so the
  /// link stays six cache lines.
  Queue* queue_;
  PacketSink& downstream_;
  bool busy_{false};
  bool owns_queue_{false};
  /// The packet currently being serialized (valid while busy_). Kept here
  /// rather than captured in the completion event so that event's capture
  /// stays within the EventPool's inline-slot budget.
  Packet in_service_{};
  LinkStats stats_;
  const char* trace_qlen_name_{nullptr};
  /// Cached registry counter (registry storage is stable); created on the
  /// first drop so unused links add no metrics.
  telemetry::Counter* drops_counter_{nullptr};

  // Fault state. Defaults mean "no fault": the extra cost on a healthy
  // link is one boolean and one double comparison per received packet.
  bool fault_down_{false};
  bool fault_frozen_{false};
  double fault_rate_factor_{1.0};
  sim::SimTime fault_extra_propagation_{};
  double fault_loss_p_{0.0};
  sim::Rng* fault_loss_rng_{nullptr};
  /// Bumped on every down edge; propagation events capture the epoch they
  /// were launched in and discard themselves if the link went down since
  /// (the packet was on the wire when the cable was cut).
  std::uint64_t down_epoch_{0};
  /// Live serialization-completion event, cancellable on a down edge.
  sim::Scheduler::EventHandle tx_event_{};
  LinkFaultStats fault_stats_;
};

}  // namespace rbs::net
