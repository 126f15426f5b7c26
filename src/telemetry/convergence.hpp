// ConvergenceDetector: online steady-state detection for experiment runs.
//
// The sizing experiments measure long-run averages (utilization, queue
// occupancy, drop rate) whose transients decay well before the configured
// measurement window ends — the window is sized for the worst case, so most
// bisection probe runs burn simulated time after the answer has stabilized.
// This detector watches the sampled series online: it partitions samples
// into fixed-size windows, and when `stable_windows` consecutive window
// means agree within the configured tolerances, declares convergence.
//
// Two consumers:
//   - Metrics: convergence.* gauges in every snapshot (converged, the time
//     it happened, windows seen) so runs document their own settling time.
//   - Early exit: a long- or short-flow run may opt in (see
//     LongFlowExperimentConfig::convergence_early_exit) to stop at
//     convergence. Mixed runs have no such switch, and the bisection
//     harness never sets it. Opt-in only — the default run is a single
//     sim.run_until(end), so goldens stay byte-identical — and any
//     truncation is recorded in the telemetry (convergence.truncated).
//
// Detection is deterministic: it consumes the same sampled values in the
// same order on every identically seeded run, and uses exact comparisons of
// window means against fixed tolerances.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace rbs::telemetry {

struct ConvergenceConfig {
  /// Samples per comparison window.
  std::size_t window_samples{20};
  /// Consecutive agreeing window pairs required to declare convergence.
  std::size_t stable_windows{3};
  /// Absolute tolerance on consecutive window means of utilization [0,1].
  double utilization_tolerance{0.01};
  /// Relative tolerance on queue-length window means (absolute below 1 pkt).
  double qlen_tolerance{0.10};
  /// Relative tolerance on drop-rate window means (absolute below 1 pps).
  double drop_rate_tolerance{0.10};
};

class ConvergenceDetector {
 public:
  ConvergenceDetector() : ConvergenceDetector(ConvergenceConfig{}) {}
  explicit ConvergenceDetector(ConvergenceConfig config);

  /// Feed one sample tick. Values use the same units as the sampled series
  /// columns: utilization in [0,1], queue length in packets, drop rate in
  /// packets/sec. Convergence latches: once declared it stays declared.
  void observe(sim::SimTime t, double utilization, double qlen_packets,
               double drop_rate_pps);

  [[nodiscard]] bool converged() const noexcept { return converged_; }
  /// Time of the sample that completed the stable streak (zero if not
  /// converged).
  [[nodiscard]] sim::SimTime converged_at() const noexcept { return converged_at_; }
  [[nodiscard]] std::uint64_t windows_observed() const noexcept { return windows_; }
  [[nodiscard]] std::uint64_t samples_observed() const noexcept { return samples_; }

  /// Marks that a run was cut short at convergence (set by the experiment
  /// when early exit actually triggered, not merely when it was enabled).
  void mark_truncated() noexcept { truncated_ = true; }
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  /// Registers convergence.* gauges (names in docs/observability.md).
  void export_into(MetricsRegistry& registry) const;

 private:
  struct WindowMeans {
    double utilization{0.0};
    double qlen{0.0};
    double drop_rate{0.0};
  };

  [[nodiscard]] bool windows_agree(const WindowMeans& a, const WindowMeans& b) const;

  ConvergenceConfig config_;
  // Current (partial) window accumulators.
  double util_sum_{0.0};
  double qlen_sum_{0.0};
  double drop_sum_{0.0};
  std::size_t in_window_{0};
  // Last completed window, for the consecutive comparison.
  WindowMeans prev_window_{};
  bool have_prev_window_{false};
  std::size_t stable_streak_{0};
  std::uint64_t windows_{0};
  std::uint64_t samples_{0};
  bool converged_{false};
  sim::SimTime converged_at_{};
  bool truncated_{false};
};

}  // namespace rbs::telemetry
