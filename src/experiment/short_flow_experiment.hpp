// Short-flow experiment: Poisson arrivals of slow-start flows through one
// bottleneck; measures AFCT, drop probability, and the queue-length tail.
//
// Engine behind Figure 8 and the short-flow half of Figure 9.
#pragma once

#include <cstdint>

#include "experiment/dumbbell_run.hpp"
#include "tcp/tcp_source.hpp"
#include "traffic/flow_size.hpp"

namespace rbs::experiment {

struct ShortFlowExperimentConfig : RunControls {
  core::BitsPerSec bottleneck_rate{core::BitsPerSec{80e6}};
  sim::SimTime bottleneck_delay{sim::SimTime::milliseconds(20)};
  std::int64_t buffer_packets{500};
  double load{0.8};

  /// Flow length distribution; the paper's reference is fixed 62-packet
  /// flows (bursts 2,4,8,16,32).
  std::int64_t flow_packets{62};

  /// Access links are faster than the bottleneck (the paper's worst case is
  /// infinitely fast access; 10× is effectively that).
  core::BitsPerSec access_rate{core::BitsPerSec::gigabits(1)};
  sim::SimTime access_delay_min{sim::SimTime::milliseconds(2)};
  sim::SimTime access_delay_max{sim::SimTime::milliseconds(30)};
  int num_leaves{50};

  tcp::TcpConfig tcp{};
  sim::SimTime warmup{sim::SimTime::seconds(5)};
  sim::SimTime measure{sim::SimTime::seconds(40)};

  /// Stop measuring early at detected steady state (opt-in; see the same
  /// field on LongFlowExperimentConfig for semantics and caveats).
  bool convergence_early_exit{false};
  telemetry::ConvergenceConfig convergence{};
};

struct ShortFlowExperimentResult {
  double afct_seconds{0.0};
  std::uint64_t flows_completed{0};
  double drop_probability{0.0};  ///< bottleneck packet drop fraction
  double utilization{0.0};
  double mean_queue_packets{0.0};
  /// Empirical queue-length survival function: P(Q >= b) for b = index,
  /// sampled every packet-service-time during measurement.
  std::vector<double> queue_tail;
  double mean_rtt_sec{0.0};

  /// Packets lost to injected faults across all links over the whole run.
  std::uint64_t fault_drops{0};

  /// Largest backlog any arrival found at the bottleneck over the whole run
  /// (DumbbellRun::peak_backlog_packets).
  std::int64_t peak_backlog_packets{-1};

  /// Snapshot + series collected per the config's TelemetryConfig.
  TelemetryResult telemetry;
};

/// Throws std::invalid_argument for load <= 0 and for the run-level
/// conditions of DumbbellRun.
[[nodiscard]] ShortFlowExperimentResult run_short_flow_experiment(
    const ShortFlowExperimentConfig& config);

/// Smallest buffer whose AFCT is within `afct_penalty` (e.g. 0.125 = +12.5%)
/// of the given baseline AFCT (measured with an effectively infinite
/// buffer). bisect_buffer over probe runs (detail::run_short_flow_probe); a
/// probe passes only if some flow completed, and a probe that never
/// dropped answers for every buffer above its peak backlog. Throws
/// std::invalid_argument for a non-positive baseline.
[[nodiscard]] std::int64_t min_buffer_for_afct(ShortFlowExperimentConfig config,
                                               double baseline_afct_sec, double afct_penalty,
                                               std::int64_t lo, std::int64_t hi);

namespace detail {
/// run_short_flow_experiment without the queue sampler, so mean_queue_packets
/// and queue_tail stay empty and the telemetry counts fewer events; every
/// other field is bitwise the same. What a bisection probe runs.
[[nodiscard]] ShortFlowExperimentResult run_short_flow_probe(
    const ShortFlowExperimentConfig& config);
}  // namespace detail

}  // namespace rbs::experiment
