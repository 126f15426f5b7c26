// Trace-driven workload: replay an empirical list of (arrival time, flow
// size) records through the simulator.
//
// This is how an operator would evaluate buffer candidates against *their*
// traffic instead of a synthetic model: export flow records from NetFlow or
// a packet capture, convert to the trace format, replay at any buffer size.
//
// Trace format (text, one flow per line, '#' comments):
//   <arrival_seconds> <size_packets>
// Records need not be sorted; the loader sorts by arrival time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "traffic/flow_table.hpp"

namespace rbs::traffic {

/// One flow of a trace.
struct TraceRecord {
  double arrival_sec{0.0};
  std::int64_t size_packets{1};
};

/// Parses the trace text format. Throws std::runtime_error on malformed
/// input (line number included). Records are returned sorted by arrival.
[[nodiscard]] std::vector<TraceRecord> parse_trace(const std::string& text);

/// Reads and parses a trace file. Throws std::runtime_error if unreadable.
[[nodiscard]] std::vector<TraceRecord> load_trace_file(const std::string& path);

/// Renders records in the trace format (for writing synthetic traces).
[[nodiscard]] std::string format_trace(const std::vector<TraceRecord>& records);

struct TraceWorkloadConfig {
  tcp::TcpConfig tcp{};
  tcp::TcpSinkConfig sink{};
};

/// Launches each trace record as a TCP flow at its arrival time; record i
/// runs on leaf i mod (number of leaves). The private FlowTable base owns
/// and reaps the flows.
class TraceWorkload : private FlowTable {
 public:
  using FlowTable::completions;
  using FlowTable::flows_active;
  using FlowTable::flows_completed;
  using FlowTable::flows_started;

  /// `records` is copied; the workload owns its schedule.
  TraceWorkload(sim::Simulation& sim, net::Dumbbell& topo, std::vector<TraceRecord> records,
                const TraceWorkloadConfig& config);
  ~TraceWorkload();

  [[nodiscard]] std::size_t flows_in_trace() const noexcept { return records_.size(); }

  /// FlowTable::audit, plus: no more flows started than the trace holds.
  void audit(check::AuditReport& report) const;

 private:
  void arrive(std::size_t index);

  LeafPlacement placement_;
  std::vector<TraceRecord> records_;
  std::vector<sim::Scheduler::EventHandle> launches_;
};

}  // namespace rbs::traffic
