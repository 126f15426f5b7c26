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
#include <list>
#include <unordered_map>

#include "core/units.hpp"
#include "net/packet_ring.hpp"
#include "net/queue.hpp"

namespace rbs::net {

/// Fair queue with one FIFO per flow and deficit-round-robin service.
class DrrQueue final : public Queue {
 public:
  /// `limit_packets`: shared buffer pool. `quantum`: per-round byte
  /// allowance per flow (use ~one MTU). A negative limit or a quantum below
  /// one byte throws std::invalid_argument.
  explicit DrrQueue(std::int64_t limit_packets, core::Bytes quantum = core::Bytes{1500});

  /// Accepts `p` unless the arriving flow itself holds the longest backlog;
  /// otherwise a packet of the longest-backlog flow is evicted to make room
  /// (counted in stats().dropped_packets).
  bool enqueue(const Packet& p) override;
  std::optional<Packet> dequeue() override;

  /// Number of flows currently backlogged.
  [[nodiscard]] std::size_t active_flows() const noexcept { return flows_.size(); }

  /// Conservation laws plus DRR bookkeeping: the cached occupancy matches
  /// the per-flow FIFOs, the active list and flow map agree exactly, and no
  /// registered flow has an empty FIFO.
  void audit(check::AuditReport& report) const override;

 private:
  struct FlowState {
    PacketRing fifo;
    std::int64_t deficit{0};
  };

  std::int64_t quantum_;

  /// Keyed store only: every result-affecting walk (eviction victim scan,
  /// DRR service) iterates `active_`, and audit() sorts the keys first.
  // rbs-analyze: allow(R2) -- lookups only; iteration goes through active_ or sorted keys
  std::unordered_map<FlowId, FlowState> flows_;
  std::list<FlowId> active_;  ///< round-robin order of backlogged flows
};

}  // namespace rbs::net
