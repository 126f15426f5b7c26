// Poisson-arrival short-flow workload (§4, §5.1.2).
//
// New TCP flows arrive according to a Poisson process (the paper's cited
// arrival model) and draw a length from a FlowSizeDistribution. A FlowTable
// transfers each flow through the dumbbell, records its completion time and
// tears it down. Flows are assigned to leaves round-robin; many flows can
// share a leaf concurrently (each leaf models an access network).
#pragma once

#include "core/units.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "traffic/flow_size.hpp"
#include "traffic/flow_table.hpp"

namespace rbs::traffic {

struct ShortFlowWorkloadConfig {
  tcp::TcpConfig tcp{};
  tcp::TcpSinkConfig sink{};
  double arrivals_per_sec{10.0};
  /// Leaves the flows use. Lets short flows coexist with a LongFlowWorkload
  /// that occupies the leading leaves.
  LeafRange leaves{};
};

/// Converts a target link load into a Poisson arrival rate:
///   λ = ρ·C / (E[len]·packet_bits).
[[nodiscard]] double arrival_rate_for_load(double load, core::BitsPerSec rate,
                                           double mean_flow_packets,
                                           core::Bytes packet_size) noexcept;

/// Generates short flows from time zero on; the private FlowTable base owns
/// and reaps them and lends the workload its read-only surface.
class ShortFlowWorkload : private FlowTable {
 public:
  using FlowTable::audit;
  using FlowTable::completions;
  using FlowTable::flows_active;
  using FlowTable::flows_completed;
  using FlowTable::flows_started;
  using FlowTable::on_flow_complete;

  /// `sizes` must outlive the workload. Throws std::invalid_argument for an
  /// arrival rate that is not positive and finite, and for a leaf range
  /// that is empty or does not fit `topo`.
  ShortFlowWorkload(sim::Simulation& sim, net::Dumbbell& topo, FlowSizeDistribution& sizes,
                    const ShortFlowWorkloadConfig& config);
  ~ShortFlowWorkload();

  /// Stops launching new flows (in-progress flows run to completion).
  void stop_arrivals() noexcept { arrival_event_.cancel(); }

 private:
  /// Launches one flow and schedules the next arrival.
  void arrive();

  sim::Simulation& sim_;
  FlowSizeDistribution& sizes_;
  LeafPlacement placement_;
  double mean_gap_sec_;
  sim::Rng rng_;
  sim::Scheduler::EventHandle arrival_event_;
};

}  // namespace rbs::traffic
