#include "net/drr_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/invariant.hpp"

namespace rbs::net {

DrrQueue::DrrQueue(std::int64_t limit_packets, core::Bytes quantum)
    : limit_{limit_packets}, quantum_{quantum.count()} {
  if (limit_packets < 0) {
    throw std::invalid_argument("DrrQueue: negative packet limit " +
                                std::to_string(limit_packets));
  }
  if (quantum.count() < 1) {
    throw std::invalid_argument("DrrQueue: quantum must be >= 1 byte, got " +
                                std::to_string(quantum.count()));
  }
}

bool DrrQueue::enqueue(const Packet& p) {
  if (total_packets_ >= limit_) {
    // Longest-queue drop: evict from the flow hogging the pool. Scan the
    // round-robin list, not the hash map — iteration order of the map
    // depends on hashing internals, so ties between equally long backlogs
    // would be broken nondeterministically. The active list gives every
    // run the same victim: the earliest flow in round order with the
    // strictly longest backlog.
    auto longest = flows_.end();
    for (const FlowId flow : active_) {
      auto it = flows_.find(flow);
      assert(it != flows_.end());
      if (longest == flows_.end() ||
          it->second.fifo.size() > longest->second.fifo.size()) {
        longest = it;
      }
    }
    if (longest == flows_.end() || longest->first == p.flow) {
      // Nothing to evict, or the arrival itself belongs to the hog.
      ++stats_.dropped_packets;
      stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
      return false;
    }
    const Packet& victim = longest->second.fifo.back();
    ++stats_.dropped_packets;
    stats_.dropped_bytes += static_cast<std::uint64_t>(victim.size_bytes);
    // The victim was accepted earlier, so it leaves the conservation law via
    // the evicted_* side rather than dequeued_*.
    ++stats_.evicted_packets;
    stats_.evicted_bytes += static_cast<std::uint64_t>(victim.size_bytes);
    total_bytes_ -= victim.size_bytes;
    --total_packets_;
    longest->second.fifo.pop_back();
    if (longest->second.fifo.empty()) {
      active_.remove(longest->first);
      flows_.erase(longest);
    }
  }
  auto [it, inserted] = flows_.try_emplace(p.flow);
  if (inserted || it->second.fifo.empty()) {
    // Newly backlogged flow joins the end of the round with a fresh deficit.
    if (inserted) it->second.deficit = 0;
    active_.push_back(p.flow);
  }
  it->second.fifo.push_back(p);
  ++total_packets_;
  total_bytes_ += p.size_bytes;
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += static_cast<std::uint64_t>(p.size_bytes);
  RBS_INVARIANT(total_packets_ <= limit_, "occupancy exceeds the buffer limit after enqueue");
  return true;
}

std::optional<Packet> DrrQueue::dequeue() {
  // Every pass over the round adds a quantum to each backlogged flow, so a
  // serveable head packet appears within ceil(max_packet/quantum) rotations;
  // the loop always terminates while the queue is non-empty.
  while (!active_.empty()) {
    const FlowId flow = active_.front();
    auto it = flows_.find(flow);
    assert(it != flows_.end() && !it->second.fifo.empty());
    FlowState& state = it->second;

    if (state.deficit < state.fifo.front().size_bytes) {
      // Not enough credit: refill and move to the back of the round.
      state.deficit += quantum_;
      active_.pop_front();
      active_.push_back(flow);
      continue;
    }

    Packet p = state.fifo.front();
    state.fifo.pop_front();
    state.deficit -= p.size_bytes;
    --total_packets_;
    total_bytes_ -= p.size_bytes;
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += static_cast<std::uint64_t>(p.size_bytes);
    RBS_INVARIANT(total_packets_ >= 0 && total_bytes_ >= 0,
                  "occupancy counters went negative on dequeue");

    if (state.fifo.empty()) {
      // Flow leaves the round; per DRR it forfeits its remaining deficit.
      state.deficit = 0;
      active_.pop_front();
      flows_.erase(it);
    }
    return p;
  }
  return std::nullopt;
}

void DrrQueue::set_limit_packets(std::int64_t limit) {
  if (limit < 0) {
    throw std::invalid_argument("DrrQueue: negative packet limit " +
                                std::to_string(limit));
  }
  // Lowering below the current occupancy never evicts retroactively; the
  // next enqueue sees total_packets_ >= limit_ and applies longest-queue
  // drop as usual.
  limit_ = limit;
}

void DrrQueue::audit(check::AuditReport& report) const {
  Queue::audit(report);
  std::int64_t actual_packets = 0;
  std::int64_t actual_bytes = 0;
  // Visit flows in sorted-id order so violation messages are deterministic.
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  // rbs-analyze: allow(R2) -- keys are sorted before any use
  for (const auto& [flow, state] : flows_) ids.push_back(flow);
  std::sort(ids.begin(), ids.end());
  for (const FlowId flow : ids) {
    const FlowState& state = flows_.at(flow);
    actual_packets += static_cast<std::int64_t>(state.fifo.size());
    for (const Packet& p : state.fifo) actual_bytes += p.size_bytes;
    if (state.fifo.empty()) {
      report.violation("flow " + std::to_string(flow) + " registered with an empty FIFO");
    }
  }
  if (actual_packets != total_packets_ || actual_bytes != total_bytes_) {
    report.violation("cached totals " + std::to_string(total_packets_) + " pkts/" +
                     std::to_string(total_bytes_) + " B != per-flow contents " +
                     std::to_string(actual_packets) + " pkts/" + std::to_string(actual_bytes) +
                     " B");
  }
  // The round-robin list and the flow map must describe the same flow set,
  // with each backlogged flow appearing in the round exactly once.
  if (active_.size() != flows_.size()) {
    report.violation("round list holds " + std::to_string(active_.size()) +
                     " flows but the flow map holds " + std::to_string(flows_.size()));
  }
  std::size_t matched = 0;
  for (const FlowId flow : active_) {
    if (flows_.find(flow) != flows_.end()) ++matched;
  }
  if (matched != active_.size()) {
    report.violation(std::to_string(active_.size() - matched) +
                     " flows in the round list are missing from the flow map");
  }
}

}  // namespace rbs::net
