// The shared lifecycle of one dumbbell experiment run.
//
// Every runner (long-flow, short-flow, mixed, and rbsim's trace replay)
// builds the same world and walks it through the same phases; only the
// workload, a few probes and the result fields differ. DumbbellRun owns the
// world and the phases, in this order:
//
//   DumbbellRun run{controls, topo_cfg, warmup, measure};  // sim, tele, topo
//   ...build the workload on run.sim / run.topo...
//   run.arm(audit_parts);          // fault injector, auditor, crash probes
//   run.warm_up(extra_probes);     // warm-up, reset, telemetry start
//   run.sample_queue(interval);    // bottleneck occupancy sampler (not in probes)
//   ...runner-specific samplers...
//   run.measure(&convergence, early_exit);  // run to the end, final audit
//   ...harvest: utilization(), drop_fraction(), fault_drops(), ...
//   result.telemetry = run.finish();
//
// The order of the schedule/start calls is part of the determinism
// contract: events due at the same instant fire in scheduling order, so a
// runner must not reorder these steps (goldens pin the outcome). A
// bisection probe walks the same steps minus sample_queue: the sampler's
// ticks only read the queue, so leaving them out keeps every other event in
// the same (time, seq) order, and no verdict reads what they collect.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/auditor.hpp"
#include "experiment/telemetry_hookup.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_schedule.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "stats/online_stats.hpp"
#include "stats/time_series.hpp"
#include "stats/utilization.hpp"
#include "telemetry/convergence.hpp"

namespace rbs::experiment {

/// Run-level knobs every experiment config shares (each config inherits
/// them, so `cfg.seed = …` works on all of them).
struct RunControls {
  std::uint64_t seed{1};

  /// Scheduler ready-queue backend. Both backends fire events in bitwise-
  /// identical order (asserted by tests/golden_test.cpp under each); the
  /// timing wheel is the fast default, the 4-ary heap the reference.
  sim::SchedulerBackend scheduler_backend{sim::SchedulerBackend::kWheel};

  /// Paranoia mode: attach an InvariantAuditor to the scheduler, the
  /// bottleneck queue, the workload's endpoints and the fault injector,
  /// re-verify all invariants every `audit_every_events` executed events
  /// and once more at the end, and throw std::runtime_error on any
  /// violation. Costs a few percent of runtime; results are unchanged.
  bool checked{false};
  std::uint64_t audit_every_events{50'000};

  /// Observability: metrics snapshot + time series, tracing, profiling,
  /// flow stats, flight recorder.
  TelemetryConfig telemetry{};

  /// Injected fault windows (empty = no injector, bitwise-identical run;
  /// see docs/faults.md). Links are addressed by topology name.
  fault::FaultSchedule faults{};
};

/// Throws std::invalid_argument(`what`) unless `ok`.
inline void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument{what};
}

/// The dumbbell fields every experiment config spells the same way.
template <class Config>
[[nodiscard]] net::DumbbellConfig dumbbell_for(const Config& config, int leaves) {
  net::DumbbellConfig topo;
  topo.num_leaves = leaves;
  topo.bottleneck_rate = config.bottleneck_rate;
  topo.bottleneck_delay = config.bottleneck_delay;
  topo.buffer_packets = config.buffer_packets;
  topo.access_rate = config.access_rate;
  topo.access_delay_min = config.access_delay_min;
  topo.access_delay_max = config.access_delay_max;
  return topo;
}

/// One run's world (Simulation, telemetry, Dumbbell) plus the shared
/// phases. Holds `controls` by reference: it must outlive the run.
class DumbbellRun {
 public:
  /// Extra telemetry series columns, registered after the standard
  /// bottleneck ones.
  using Probes = std::vector<std::pair<std::string, std::function<double()>>>;
  /// Registers the runner's own subsystems with the auditor.
  using AuditParts = std::function<void(check::InvariantAuditor&)>;

  /// Throws std::invalid_argument for fewer than one leaf, a negative
  /// warm-up or measurement window, or a telemetry sample interval <= 0.
  /// Zero for both windows builds the world and runs nothing (a set-up
  /// timing sample).
  DumbbellRun(const RunControls& controls, const net::DumbbellConfig& topo_config,
              sim::SimTime warmup, sim::SimTime measure);
  DumbbellRun(const DumbbellRun&) = delete;  // samplers capture `this`
  DumbbellRun& operator=(const DumbbellRun&) = delete;

  /// Arms the fault schedule on every link and, when checked, the auditor
  /// (bottleneck queue, `parts`, injector, scheduler) and the flight
  /// recorder's crash probes. Call once the workload exists, before warm-up.
  void arm(const AuditParts& parts);

  /// Runs the warm-up, resets the bottleneck counters, then
  /// begin_measurement(extra).
  void warm_up(const Probes& extra);

  /// Starts the measurement window now: utilization meter, the standard
  /// bottleneck series columns plus `extra`, telemetry sampling.
  void begin_measurement(const Probes& extra);

  /// Samples the bottleneck occupancy every `interval` from now on.
  void sample_queue(sim::SimTime interval);

  /// Runs to warmup + measure and audits the end state. With `convergence`
  /// non-null, a steady-state detector watches the window whenever metrics
  /// are on or `early_exit` is set; early exit stops at convergence.
  void measure(const telemetry::ConvergenceConfig* convergence = nullptr,
               bool early_exit = false);

  // --- Harvest (after measure) ----------------------------------------------

  /// Bottleneck utilization over the measurement window.
  [[nodiscard]] double utilization() const noexcept { return meter_.utilization(); }
  /// Bottleneck drops / packets offered to the bottleneck queue.
  [[nodiscard]] double drop_fraction() noexcept;
  /// Packets lost to injected faults across all links over the whole run.
  [[nodiscard]] std::uint64_t fault_drops() noexcept;
  /// Mean sampled bottleneck occupancy (packets).
  [[nodiscard]] double mean_queue_packets() const noexcept { return occupancy_.mean(); }
  /// Survival function P(Q >= b), b = index, of the sampled occupancy.
  [[nodiscard]] std::vector<double> queue_tail() const;
  /// Largest backlog any arrival found at the bottleneck over the whole
  /// run, warm-up included; -1 unless the bottleneck is drop-tail, the one
  /// queue whose drops this number alone decides.
  [[nodiscard]] std::int64_t peak_backlog_packets() noexcept;

  /// Exports the convergence gauges and closes the telemetry.
  [[nodiscard]] TelemetryResult finish();

  sim::Simulation sim;
  ExperimentTelemetry tele;
  net::Dumbbell topo;

 private:
  const RunControls& controls_;
  sim::SimTime warmup_;
  sim::SimTime end_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<check::InvariantAuditor> auditor_;
  stats::UtilizationMeter meter_;
  stats::OnlineStats occupancy_;
  std::vector<std::uint64_t> occupancy_counts_;  // index = occupancy in packets
  std::unique_ptr<stats::PeriodicTicker> queue_ticker_;
  std::unique_ptr<telemetry::ConvergenceDetector> conv_;
  std::unique_ptr<stats::PeriodicTicker> conv_ticker_;
};

/// One bisection probe: its verdict, and the smallest buffer from which its
/// run repeats bit for bit. A bare verdict converts to a probe that holds
/// for its own buffer only.
struct BufferProbe {
  static constexpr std::int64_t kOwnBufferOnly = std::numeric_limits<std::int64_t>::max();

  constexpr BufferProbe(bool pass,  // NOLINT(runtime/explicit)
                        std::int64_t from = kOwnBufferOnly) noexcept
      : ok{pass}, reproduced_from{from} {}

  bool ok;
  std::int64_t reproduced_from;
};

/// The probe of a run at `buffer` whose bottleneck peaked at `peak_backlog`
/// (DumbbellRun::peak_backlog_packets). A peak below the buffer means the
/// run never dropped, and any buffer above the peak makes the same
/// decisions, so the run repeats from peak + 1 up.
[[nodiscard]] inline BufferProbe drop_free_probe(bool ok, std::int64_t buffer,
                                                 std::int64_t peak_backlog) noexcept {
  if (peak_backlog >= 0 && peak_backlog < buffer) return {ok, peak_backlog + 1};
  return ok;
}

/// Smallest buffer in [lo, hi] for which `probe` passes; `hi` when even
/// `hi` fails. Measurements are noisy, so the answer is the smallest probed
/// buffer that passed while its predecessor failed. A buffer at or above
/// an earlier probe's reproduced_from is answered from that probe's
/// verdict without a run. As long as each reproduced_from is true to its
/// run, the path and the answer are those of plain bisection over fresh
/// runs, monotone predicate or not. Throws std::invalid_argument unless
/// 1 <= lo <= hi.
[[nodiscard]] std::int64_t bisect_buffer(
    std::int64_t lo, std::int64_t hi, const std::function<BufferProbe(std::int64_t)>& probe);

}  // namespace rbs::experiment
