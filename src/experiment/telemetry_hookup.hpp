// Shared observability plumbing for experiment runs.
//
// Every experiment (long-flow, short-flow, mixed) accepts a TelemetryConfig
// and returns a TelemetryResult: a point-in-time metrics snapshot, a
// fixed-cadence time series over the measurement window, an optional
// per-flow rollup (FlowStatsHub), and (optionally) an engine-profiler
// summary. ExperimentTelemetry is the one place that wires the Simulation's
// registry, a borrowed TraceSession, the scheduler profiler, the flight
// recorder, and the standard bottleneck probes together, so the three
// experiment drivers stay thin and agree on metric names.
//
// Standard series columns (all sampled on config.sample_interval):
//   queue_depth_pkts   bottleneck occupancy incl. the packet in service
//   utilization        delivered bits / capacity over the last interval
//   cwnd_total_pkts    aggregate congestion window (experiment-provided)
//   drop_rate_pps      bottleneck drops per second over the last interval
//   mark_rate_pps      ECN marks per second (RED bottlenecks only)
// With flow stats on, two more columns track the rollup as it fills:
//   flows_observed     observations recorded so far
//   fct_p50_sec        running median FCT over completed flows
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/auditor.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"
#include "stats/time_series.hpp"
#include "tcp/tcp_source.hpp"
#include "telemetry/convergence.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/flow_stats.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace rbs::experiment {

/// Observability knobs common to all experiments. Plain data; the default is
/// everything off, which costs one null check per would-be event.
struct TelemetryConfig {
  /// Collect a metrics snapshot and the sampled time series.
  bool metrics{false};
  /// Cadence of the time series (and of trace counter tracks).
  sim::SimTime sample_interval{sim::SimTime::milliseconds(100)};
  /// Borrowed trace session (null = no tracing). Must outlive the run.
  telemetry::TraceSession* trace{nullptr};
  /// Attach an EngineProfiler to the scheduler for the whole run.
  bool profile{false};
  /// Collect per-flow rollups (FCT/goodput/retransmit/cwnd sketches and the
  /// bottleneck hog table). Off by default: the default run records nothing
  /// per flow and existing outputs stay byte-identical.
  bool flow_stats{false};
  /// Hog-table capacity when flow_stats is on.
  std::size_t flow_stats_top_k{16};
  /// Write a post-mortem JSON here on auditor violation or uncaught
  /// exception (see telemetry::FlightRecorder). Empty = recorder off.
  std::string flight_recorder_path;
};

/// What a run hands back when telemetry was requested.
struct TelemetryResult {
  telemetry::MetricsSnapshot snapshot;  ///< end-of-run registry contents
  telemetry::SeriesTable series;        ///< measurement-window time series
  std::string profile_summary;          ///< EngineProfiler::summary(), if profiling
  bool collected{false};                ///< false when telemetry was off
  telemetry::FlowStatsHub flow_stats;   ///< per-flow rollup (empty if off)
  bool flow_stats_collected{false};     ///< false when flow stats were off
};

/// RAII wiring of one Simulation's telemetry for one experiment run.
/// Construct right after the Simulation (so the trace covers topology
/// construction onward), add probes once the topology exists, start() at the
/// beginning of the measurement window, finish() after the run.
class ExperimentTelemetry {
 public:
  ExperimentTelemetry(sim::Simulation& sim, const TelemetryConfig& config);
  ~ExperimentTelemetry();
  ExperimentTelemetry(const ExperimentTelemetry&) = delete;
  ExperimentTelemetry& operator=(const ExperimentTelemetry&) = delete;

  /// True when the sampled series is being collected.
  [[nodiscard]] bool sampling() const noexcept { return ticker_ != nullptr; }

  /// Registers the standard bottleneck columns (queue depth, utilization,
  /// drop rate, and — for RED — mark rate). Call after the topology exists
  /// and counters have been reset for the measurement window.
  void add_bottleneck_probes(net::Link& bottleneck);

  /// Registers an extra column (e.g. cwnd_total_pkts). Columns are sampled
  /// in registration order; no-op unless sampling.
  void add_probe(std::string column, std::function<double()> probe);

  /// Begins sampling; the first row lands at `first`.
  void start(sim::SimTime first);

  // --- Per-flow stats -------------------------------------------------------

  /// Non-null iff config.flow_stats was set.
  [[nodiscard]] telemetry::FlowStatsHub* flow_stats() noexcept { return flow_stats_.get(); }

  /// Harvests one TCP source into the hub: FCT for finished flows, elapsed
  /// time plus a completed=false marker otherwise, goodput from acked
  /// payload over the flow's own active span. `now` is the observation
  /// time (usually measurement end); no-op with flow stats off.
  void record_tcp_flow(const tcp::TcpSource& src, sim::SimTime now);

  // --- Flight recorder ------------------------------------------------------

  /// Non-null iff config.flight_recorder_path was set.
  [[nodiscard]] telemetry::FlightRecorder* recorder() noexcept { return recorder_.get(); }

  /// Registers the standard crash-state probes (queue depth, events
  /// pending, delivered/dropped counters) on the recorder. No-op when the
  /// recorder is off.
  void arm_crash_probes(net::Link& bottleneck);

  /// Chains the recorder onto the auditor's violation hook: each violation
  /// is noted, and the first one dumps a post-mortem at violation time
  /// (i.e. before require_clean() unwinds the run). No-op when off.
  void attach_auditor(check::InvariantAuditor& auditor);

  /// Runs sim.run_until(until) with post-mortem coverage: an exception
  /// escaping the event loop dumps (reason = the exception text) and
  /// rethrows. With no recorder armed this is exactly run_until.
  void run_guarded(sim::SimTime until);

  /// Stops sampling, exports profiler + engine gauges + flow-stats +
  /// trace-drop gauges into the registry, and returns the snapshot + series.
  [[nodiscard]] TelemetryResult finish();

 private:
  /// One row of the series: every probe in column order. With a trace
  /// attached, each value is also emitted as a counter event so the series
  /// render as counter tracks on the packet timeline.
  void sample_row();

  sim::Simulation& sim_;
  TelemetryConfig config_;
  std::vector<std::function<double()>> probes_;
  std::vector<const char*> trace_names_;  ///< interned column names; null untraced
  telemetry::SeriesTable series_;
  std::unique_ptr<stats::PeriodicTicker> ticker_;  ///< null unless config.metrics
  std::unique_ptr<telemetry::EngineProfiler> profiler_;
  std::unique_ptr<telemetry::FlowStatsHub> flow_stats_;
  std::unique_ptr<telemetry::FlightRecorder> recorder_;
};

}  // namespace rbs::experiment
