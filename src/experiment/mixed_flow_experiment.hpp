// Mixed workload experiment: long-lived flows + Poisson short flows
// (+ optional non-reactive UDP) sharing one bottleneck.
//
// Engine behind Figure 9 (AFCT with BDP vs BDP/√n buffers), the §5.1.3
// Pareto ablation, and the Figure 11 production-network table.
#pragma once

#include <cstdint>

#include "experiment/dumbbell_run.hpp"
#include "tcp/tcp_source.hpp"
#include "traffic/flow_size.hpp"

namespace rbs::experiment {

enum class ShortFlowSizing : std::uint8_t { kFixed, kPareto };

struct MixedFlowExperimentConfig : RunControls {
  core::BitsPerSec bottleneck_rate{core::BitsPerSec{155e6}};
  sim::SimTime bottleneck_delay{sim::SimTime::milliseconds(10)};
  std::int64_t buffer_packets{100};

  int num_long_flows{50};
  /// Offered load from short flows, as a fraction of bottleneck capacity
  /// (long flows then consume the rest).
  double short_flow_load{0.2};
  ShortFlowSizing short_sizing{ShortFlowSizing::kFixed};
  std::int64_t short_flow_packets{62};   ///< fixed sizing
  double pareto_alpha{1.2};              ///< heavy-tail sizing
  std::int64_t pareto_min_packets{2};
  std::int64_t pareto_max_packets{10'000};

  /// Non-reactive traffic as a fraction of capacity (0 = none).
  double udp_load{0.0};

  core::BitsPerSec access_rate{core::BitsPerSec::gigabits(1)};
  sim::SimTime access_delay_min{sim::SimTime::milliseconds(5)};
  sim::SimTime access_delay_max{sim::SimTime::milliseconds(53)};
  int num_short_leaves{50};  ///< extra leaves that carry the short flows

  tcp::TcpConfig tcp{};
  sim::SimTime warmup{sim::SimTime::seconds(10)};
  sim::SimTime measure{sim::SimTime::seconds(40)};
};

struct MixedFlowExperimentResult {
  double utilization{0.0};
  double afct_seconds{0.0};          ///< short flows only
  std::uint64_t short_flows_completed{0};
  double drop_probability{0.0};
  double mean_queue_packets{0.0};
  double mean_rtt_sec{0.0};
  double bdp_packets{0.0};
  double long_flow_throughput_bps{0.0};  ///< delivered by long flows

  /// Packets lost to injected faults across all links over the whole run.
  std::uint64_t fault_drops{0};

  /// Snapshot + series collected per the config's TelemetryConfig.
  TelemetryResult telemetry;
};

/// Throws std::invalid_argument for num_long_flows < 0, num_short_leaves
/// < 1, a short_flow_load that is not positive and finite, a udp_load that
/// is negative or not finite, measure <= 0 and for the run-level
/// conditions of DumbbellRun.
[[nodiscard]] MixedFlowExperimentResult run_mixed_flow_experiment(
    const MixedFlowExperimentConfig& config);

}  // namespace rbs::experiment
