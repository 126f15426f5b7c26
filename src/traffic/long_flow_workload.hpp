// Workload of n long-lived TCP flows over a dumbbell (§3, §5.1.1).
//
// One flow on each of the leading leaves, with randomly staggered start
// times. Start staggering plus per-leaf RTT spread is what desynchronizes
// the sawtooths. Flow ids run 1, 2, ... from leaf 0.
#pragma once

#include <optional>
#include <vector>

#include "core/object_block.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"
#include "traffic/flow_table.hpp"

namespace rbs::traffic {

struct LongFlowWorkloadConfig {
  tcp::TcpConfig tcp{};
  tcp::TcpSinkConfig sink{};
  /// Starts are drawn uniformly from [0, start_stagger].
  sim::SimTime start_stagger{sim::SimTime::seconds(5)};
  /// Flows, one on each of leaves 0, 1, ...; unset puts one on every leaf.
  /// Zero is valid and starts none.
  std::optional<int> num_flows{};
};

/// Creates, starts, and owns one long-lived flow per leading leaf, its
/// sources and sinks each in one block sized by the flow count.
class LongFlowWorkload {
 public:
  /// Throws std::invalid_argument for a negative num_flows or more flows
  /// than `topo` has leaves.
  LongFlowWorkload(sim::Simulation& sim, net::Dumbbell& topo,
                   const LongFlowWorkloadConfig& config);

  [[nodiscard]] int num_flows() const noexcept { return static_cast<int>(sources_.size()); }
  [[nodiscard]] tcp::TcpSource& source(int i) {
    return sources_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const tcp::TcpSource& source(int i) const {
    return sources_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] tcp::TcpSink& sink(int i) { return sinks_.at(static_cast<std::size_t>(i)); }

  /// Sum of all current congestion windows, in packets — the aggregate
  /// window process W(t) of §3.
  [[nodiscard]] double total_cwnd() const noexcept;

  /// Per-flow windows (for synchronization analysis).
  [[nodiscard]] std::vector<double> cwnd_snapshot() const;

  /// Aggregate sender-side counters over all flows.
  [[nodiscard]] tcp::TcpSourceStats total_stats() const noexcept;

  /// Audits every source and sink (flows are stored in a vector, so the
  /// report order is deterministic by construction).
  void audit(check::AuditReport& report) const;

 private:
  core::ObjectBlock<tcp::TcpSource> sources_;
  core::ObjectBlock<tcp::TcpSink> sinks_;
};

}  // namespace rbs::traffic
