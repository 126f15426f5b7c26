// Simulation context: one object that owns the scheduler, the root RNG, and
// the telemetry surfaces for one simulated world.
//
// Every network component receives a Simulation& at construction and uses it
// for time, event scheduling, and randomness. Two Simulations never share
// state, so independent experiments can run side by side (or in parallel
// threads) within one process.
//
// Telemetry: each Simulation owns a MetricsRegistry (components register
// counters/gauges/histograms through metrics()) and optionally borrows a
// TraceSession (set_trace()); producers emit through the RBS_TRACE_* macros,
// which are no-ops while no session is attached.
#pragma once

#include <cstdint>
#include <utility>

#include "check/auditor.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace rbs::sim {

/// Owns the event loop and root randomness for one simulated world.
class Simulation {
 public:
  /// `backend` selects the scheduler's ready-queue structure. Both backends
  /// fire events in bitwise-identical order (see SchedulerBackend); the
  /// wheel is the fast default, the heap the reference, and kAuto picks per
  /// workload using `horizon_hint` — the furthest-ahead delay the caller
  /// expects to schedule (see resolve_scheduler_backend).
  explicit Simulation(std::uint64_t seed = 1,
                      SchedulerBackend backend = SchedulerBackend::kWheel,
                      SimTime horizon_hint = SimTime::infinity())
      : scheduler_{backend, horizon_hint}, rng_{seed} {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] SimTime now() const noexcept { return scheduler_.now(); }

  /// This world's metric registry. Components create metrics lazily on
  /// first touch; the registry lives exactly as long as the Simulation.
  [[nodiscard]] telemetry::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Attaches (or detaches, with nullptr) a trace session. The session is
  /// borrowed — it must outlive this Simulation or be detached first — so
  /// one session can collect several short runs, and parallel sweep points
  /// simply leave tracing off.
  void set_trace(telemetry::TraceSession* trace) noexcept { trace_ = trace; }
  [[nodiscard]] telemetry::TraceSession* trace() const noexcept { return trace_; }

  /// Attaches an engine profiler to the scheduler (see Scheduler::set_profiler).
  void set_profiler(telemetry::EngineProfiler* profiler) noexcept {
    scheduler_.set_profiler(profiler);
  }

  /// Convenience pass-throughs. Any callable is accepted and stored in the
  /// scheduler's event pool without a std::function wrapper. `cls` tags the
  /// event for the engine profiler.
  template <typename F>
  Scheduler::EventHandle at(SimTime t, F&& cb, EventClass cls = EventClass::kGeneric) {
    return scheduler_.schedule_at(t, std::forward<F>(cb), cls);
  }
  template <typename F>
  Scheduler::EventHandle after(SimTime delay, F&& cb, EventClass cls = EventClass::kGeneric) {
    return scheduler_.schedule_after(delay, std::forward<F>(cb), cls);
  }

  /// Runs the world forward to absolute time `t`.
  void run_until(SimTime t) { scheduler_.run_until(t); }

  /// Runs until no events remain.
  void run() { scheduler_.run(); }

  /// Attaches an invariant auditor: every `every_n_events` executed events
  /// the auditor re-verifies all registered subsystems (plus clock
  /// monotonicity). The scheduler itself is registered here; callers add
  /// their queues, TCP endpoints, and workloads. The auditor must outlive
  /// this Simulation.
  void enable_auditing(check::InvariantAuditor& auditor,
                       std::uint64_t every_n_events = 50'000) {
    auditor.add("scheduler", scheduler_);
    // Chain a trace producer onto the violation hook: each *distinct*
    // violation lands on the unified timeline as an instant event, so a
    // conservation break can be lined up against the packet/TCP events
    // around it. Cold path — fires at most once per distinct violation.
    auto prev = std::move(auditor.on_violation);
    auditor.on_violation = [this, prev = std::move(prev)](const check::Violation& v) {
      if (prev) prev(v);
      if (trace_ != nullptr) {
        trace_->instant_with_detail("audit", "violation", scheduler_.now(),
                                    v.subsystem + ": " + v.message);
      }
    };
    scheduler_.set_audit_hook(every_n_events, [this, &auditor] {
      auditor.note_time(scheduler_.now());
      auditor.audit_now();
    });
  }

 private:
  Scheduler scheduler_;
  Rng rng_;
  telemetry::MetricsRegistry metrics_;
  telemetry::TraceSession* trace_{nullptr};
};

}  // namespace rbs::sim
