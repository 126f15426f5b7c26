// Canonical long-lived-flow experiment: n TCP flows through one bottleneck,
// measure utilization / loss / queue occupancy after warm-up.
//
// This is the engine behind Figure 7, the Figure 10 table, and the
// synchronization ablation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "experiment/dumbbell_run.hpp"
#include "net/dumbbell.hpp"
#include "stats/time_series.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"

namespace rbs::experiment {

struct LongFlowExperimentConfig : RunControls {
  int num_flows{100};
  std::int64_t buffer_packets{100};

  core::BitsPerSec bottleneck_rate{core::BitsPerSec{155e6}};  ///< OC3
  sim::SimTime bottleneck_delay{sim::SimTime::milliseconds(10)};
  /// Sender-side access delay spread; mean RTT ≈ 2*(mean access + bottleneck
  /// + receiver). Defaults give the paper's ~80 ms average RTT.
  sim::SimTime access_delay_min{sim::SimTime::milliseconds(5)};
  sim::SimTime access_delay_max{sim::SimTime::milliseconds(53)};
  core::BitsPerSec access_rate{core::BitsPerSec::gigabits(1)};

  net::QueueDiscipline discipline{net::QueueDiscipline::kDropTail};
  net::RedConfig red{};  ///< used when discipline == kRed

  tcp::TcpConfig tcp{};
  tcp::TcpSinkConfig sink{};
  sim::SimTime warmup{sim::SimTime::seconds(20)};
  sim::SimTime measure{sim::SimTime::seconds(40)};

  /// When > 0, samples the aggregate (and per-flow) congestion windows at
  /// this interval during the measurement phase.
  sim::SimTime cwnd_sample_interval{};
  bool sample_per_flow_cwnd{false};

  /// Record per-packet bottleneck delay percentiles and per-flow fairness.
  bool record_delays{false};

  /// Stop the measurement window early once the convergence detector
  /// declares steady state. Opt-in: the default run is one uninterrupted
  /// run_until and produces byte-identical outputs with or without this
  /// field existing. When an exit actually triggers, the truncation is
  /// recorded in the metrics (convergence.truncated = 1) and utilization /
  /// rates stay correct because they are elapsed-time normalized.
  bool convergence_early_exit{false};
  /// Detector tuning (windows are counted in telemetry.sample_interval
  /// ticks). The detector runs whenever metrics are on or early exit is
  /// requested, and exports convergence.* gauges either way.
  telemetry::ConvergenceConfig convergence{};
};

struct LongFlowExperimentResult {
  double utilization{0.0};
  /// Bottleneck drops / data packets offered to the bottleneck queue.
  double loss_rate{0.0};
  double mean_queue_packets{0.0};
  double mean_rtt_sec{0.0};          ///< propagation-only mean RTT of the flows
  double bdp_packets{0.0};           ///< RTT × C in packets of tcp.segment
  std::uint64_t bottleneck_drops{0};
  tcp::TcpSourceStats tcp_stats{};

  /// Aggregate window W(t) samples (empty unless requested).
  stats::TimeSeries total_cwnd;
  /// Per-flow window series, one inner vector per flow (empty unless
  /// requested).
  std::vector<std::vector<double>> per_flow_cwnd;

  /// Bottleneck per-packet delay (queueing + serialization), seconds; only
  /// filled when record_delays is set.
  double delay_mean_sec{0.0};
  double delay_p50_sec{0.0};
  double delay_p99_sec{0.0};
  /// Jain fairness index of per-flow goodput over the measurement window;
  /// only filled when record_delays is set.
  double fairness{0.0};

  /// Packets lost to injected faults across all links over the whole run
  /// (down/in-flight/flushed/corrupted); zero without a fault schedule.
  std::uint64_t fault_drops{0};

  /// Largest backlog any arrival found at the bottleneck over the whole run;
  /// -1 unless the bottleneck is drop-tail (DumbbellRun::peak_backlog_packets).
  std::int64_t peak_backlog_packets{-1};

  /// Snapshot + series collected per the config's TelemetryConfig.
  TelemetryResult telemetry;
};

/// Builds the dumbbell, runs warm-up + measurement, and reports. Throws
/// std::invalid_argument for num_flows < 1 and for the run-level conditions
/// of DumbbellRun.
[[nodiscard]] LongFlowExperimentResult run_long_flow_experiment(
    const LongFlowExperimentConfig& config);

/// Per-probe configuration hook for the bisection: called with the config
/// and the buffer about to be probed, before the run. Lets buffer-coupled
/// settings track the probe — e.g. DCTCP's step-marking threshold K must
/// scale with the buffer or every probe below a fixed K measures the same
/// marked queue (see experiment::apply_cca_profile).
using BufferProbePrepare = std::function<void(LongFlowExperimentConfig&, std::int64_t)>;

/// Smallest buffer (packets) achieving `target_utilization`, by
/// bisect_buffer over probe runs (detail::run_long_flow_probe) in [lo, hi],
/// each prepared by `prepare` (if set). Without a hook, a drop-tail probe
/// that never dropped answers for every buffer above its peak backlog; a
/// hook may tie the run to the buffer, so with one every probe runs.
[[nodiscard]] std::int64_t min_buffer_for_utilization(LongFlowExperimentConfig config,
                                                      double target_utilization,
                                                      std::int64_t lo, std::int64_t hi,
                                                      const BufferProbePrepare& prepare = {});

namespace detail {
/// run_long_flow_experiment without the queue sampler, so mean_queue_packets
/// stays 0 and the telemetry counts fewer events; every other field is
/// bitwise the same. What a bisection probe runs.
[[nodiscard]] LongFlowExperimentResult run_long_flow_probe(const LongFlowExperimentConfig& config);
}  // namespace detail

}  // namespace rbs::experiment
