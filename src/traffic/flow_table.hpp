// The finite-flow lifecycle shared by every traffic generator that opens
// and closes TCP connections: Poisson short flows (§4, §5.1.2), Harpoon-style
// sessions (§5.2) and trace replay.
//
// A workload decides *when* a flow starts and *how long* it is (Poisson
// gaps, think times, trace records). LeafPlacement says *where* it may run;
// FlowTable does the rest: it builds the sink and then the source on a leaf,
// starts the source, reaps the flow one zero-delay event after the source
// reports completion (the source is still inside its ACK handler then),
// records the flow's completion time, and audits the flows still open.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "check/auditor.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "stats/fct_tracker.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"

namespace rbs::traffic {

/// The leaves [first, first + count) a workload may use; no count spans
/// every leaf from `first` to the last one.
struct LeafRange {
  int first{0};
  std::optional<int> count{};
};

/// A LeafRange checked against a topology.
class LeafPlacement {
 public:
  /// Throws std::invalid_argument when the range starts before leaf 0, has
  /// a negative count, or reaches past the topology's last leaf. An empty
  /// range is valid; it holds no leaf to place a flow on.
  LeafPlacement(const net::Dumbbell& topo, LeafRange range);

  [[nodiscard]] int count() const noexcept { return count_; }

  /// The leaf of the i-th flow, round-robin over the range. Requires a
  /// non-empty range.
  [[nodiscard]] int leaf(std::uint64_t i) const noexcept {
    return first_ + static_cast<int>(i % static_cast<std::uint64_t>(count_));
  }

 private:
  int first_;
  int count_;
};

/// Owns the open finite flows of one workload, from launch to reap, and the
/// completion records of the finished ones.
class FlowTable {
 public:
  FlowTable(sim::Simulation& sim, net::Dumbbell& topo, const tcp::TcpConfig& tcp,
            const tcp::TcpSinkConfig& sink);

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Builds the sink and then the source of a `packets`-long flow on
  /// `leaf` and starts it now. `then` (may be empty) runs once the flow has
  /// been reaped. Returns false, and builds nothing, if `flow` is open.
  bool launch(int leaf, net::FlowId flow, std::int64_t packets,
              std::function<void()> then = {});

  /// Closes flow `flow`: records its completion time, counts it, runs
  /// on_flow_complete, destroys the source and sink, then runs the flow's
  /// `then`. Runs one zero-delay event after the source completes. A
  /// completion for an id that is not open (never launched, or reaped
  /// already) changes nothing but rejected_completions(); returns false.
  bool reap(net::FlowId flow);

  /// Invoked just before a completed flow's source is destroyed, with the
  /// source still fully readable — the flow-stats hub harvests its lifetime
  /// summary (FCT, goodput, retransmits, peak cwnd) here. Null = off.
  std::function<void(const tcp::TcpSource&)> on_flow_complete;

  [[nodiscard]] const stats::FctTracker& completions() const noexcept { return fct_; }
  [[nodiscard]] std::uint64_t flows_started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t flows_completed() const noexcept { return completed_; }
  [[nodiscard]] std::size_t flows_active() const noexcept { return open_.size(); }
  [[nodiscard]] std::uint64_t rejected_completions() const noexcept { return rejected_; }

  /// Flow accounting (started == completed + active), the completion
  /// records, then every open source and sink in ascending flow-id order.
  void audit(check::AuditReport& report) const;

 private:
  struct OpenFlow {
    std::unique_ptr<tcp::TcpSink> sink;
    std::unique_ptr<tcp::TcpSource> source;
    std::function<void()> then;
  };

  sim::Simulation& sim_;
  net::Dumbbell& topo_;
  tcp::TcpConfig tcp_;
  tcp::TcpSinkConfig sink_;

  /// The only record of open flows. Ordered, not unordered, so audit
  /// iteration does not depend on hash layout (rbs-analyze rule R2).
  std::map<net::FlowId, OpenFlow> open_;
  std::uint64_t started_{0};
  std::uint64_t completed_{0};
  std::uint64_t rejected_{0};
  stats::FctTracker fct_;
};

}  // namespace rbs::traffic
