// Deficit Round Robin fair queueing (Shreedhar & Varghese 1996).
//
// The paper expects its sizing results to hold for queueing disciplines
// beyond drop-tail. DRR is the classic O(1) fair queuer used in real router
// line cards: per-flow FIFOs served round-robin with a byte deficit, so every
// backlogged flow gets an equal byte share regardless of its arrival rate.
// Buffer accounting stays global (in packets), as in the rest of the paper.
// When the shared pool is full the queue drops from the *longest* per-flow
// backlog (McKenney's longest-queue-drop), not the arriving packet — plain
// tail drop would let an aggressive flow fill the pool and starve the rest,
// defeating the fair scheduler.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>

#include "core/units.hpp"
#include "net/queue.hpp"

namespace rbs::net {

/// Fair queue with one FIFO per flow and deficit-round-robin service.
class DrrQueue final : public Queue {
 public:
  /// `limit_packets`: shared buffer pool. `quantum`: per-round byte
  /// allowance per flow (use ~one MTU).
  explicit DrrQueue(std::int64_t limit_packets, core::Bytes quantum = core::Bytes{1500});

  /// Accepts `p` unless the arriving flow itself holds the longest backlog;
  /// otherwise a packet of the longest-backlog flow is evicted to make room
  /// (counted in stats().dropped_packets).
  bool enqueue(const Packet& p) override;
  std::optional<Packet> dequeue() override;

  [[nodiscard]] std::int64_t size_packets() const noexcept override { return total_packets_; }
  [[nodiscard]] std::int64_t size_bytes() const noexcept override { return total_bytes_; }
  [[nodiscard]] std::int64_t limit_packets() const noexcept override { return limit_; }

  /// Throws std::invalid_argument on a negative limit. Lowering below the
  /// current occupancy keeps resident packets (no retroactive eviction);
  /// arrivals trigger longest-queue drops until the backlog fits.
  void set_limit_packets(std::int64_t limit) override;

  /// Number of flows currently backlogged.
  [[nodiscard]] std::size_t active_flows() const noexcept { return flows_.size(); }

  /// Conservation laws plus DRR bookkeeping: cached packet/byte totals match
  /// the per-flow FIFOs, the active list and flow map agree exactly, and no
  /// registered flow has an empty FIFO.
  void audit(check::AuditReport& report) const override;

 private:
  struct FlowState {
    std::deque<Packet> fifo;
    std::int64_t deficit{0};
  };

  std::int64_t limit_;
  std::int64_t quantum_;
  std::int64_t total_packets_{0};
  std::int64_t total_bytes_{0};

  /// Keyed store only: every result-affecting walk (eviction victim scan,
  /// DRR service) iterates `active_`, and audit() sorts the keys first.
  // rbs-analyze: allow(R2) -- lookups only; iteration goes through active_ or sorted keys
  std::unordered_map<FlowId, FlowState> flows_;
  std::list<FlowId> active_;  ///< round-robin order of backlogged flows
};

}  // namespace rbs::net
