#include "experiment/dumbbell_run.hpp"

#include <algorithm>
#include <optional>

#include "net/drop_tail_queue.hpp"

namespace rbs::experiment {

namespace {

// The run's end time, which also bounds the schedule horizon: nothing is
// ever scheduled past warmup + measure, so backend=auto can resolve from it.
// A zero-length run is allowed: it builds the world and tears it down.
// A sample interval of zero would reschedule the samplers at the same
// instant forever. Times that saturated SimTime::from_seconds, or whose
// sum (end, or end plus one sample interval) passes infinity(), would wrap.
sim::SimTime checked_run_end(const RunControls& controls, const net::DumbbellConfig& topo,
                             sim::SimTime warmup, sim::SimTime measure) {
  const sim::SimTime interval = controls.telemetry.sample_interval;
  constexpr sim::SimTime kEnd = sim::SimTime::infinity();
  require(topo.num_leaves >= 1, "dumbbell run: need at least one leaf");
  require(interval > sim::SimTime::zero(),
          "dumbbell run: telemetry sample interval must be > 0");
  require(warmup >= sim::SimTime::zero(), "dumbbell run: warm-up must be >= 0");
  require(measure >= sim::SimTime::zero(), "dumbbell run: measurement window must be >= 0");
  require(warmup < kEnd, "dumbbell run: warm-up is past the simulated time range");
  require(measure < kEnd - warmup,
          "dumbbell run: measurement window ends past the simulated time range");
  require(interval < kEnd - (warmup + measure),
          "dumbbell run: telemetry sample interval reaches past the simulated time range");
  return warmup + measure;
}

}  // namespace

DumbbellRun::DumbbellRun(const RunControls& controls, const net::DumbbellConfig& topo_config,
                         sim::SimTime warmup, sim::SimTime measure)
    : sim{controls.seed, controls.scheduler_backend,
          checked_run_end(controls, topo_config, warmup, measure)},
      tele{sim, controls.telemetry},
      topo{sim, topo_config},
      controls_{controls},
      warmup_{warmup},
      end_{warmup + measure},
      meter_{sim, topo.bottleneck()} {}

void DumbbellRun::arm(const AuditParts& parts) {
  // Armed before warm-up so schedules can hit any phase of the run. An
  // empty schedule creates no injector and perturbs nothing.
  if (!controls_.faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(sim);
    for (net::Link& link : topo.links()) injector_->attach(link);
    injector_->arm(controls_.faults);
  }
  if (controls_.checked) {
    auditor_ = std::make_unique<check::InvariantAuditor>();
    auditor_->add("bottleneck.queue", topo.bottleneck().queue());
    if (parts) parts(*auditor_);
    if (injector_) auditor_->add("fault.injector", *injector_);
    sim.enable_auditing(*auditor_, controls_.audit_every_events);
    tele.attach_auditor(*auditor_);
  }
  tele.arm_crash_probes(topo.bottleneck());
}

void DumbbellRun::warm_up(const Probes& extra) {
  tele.run_guarded(warmup_);
  topo.bottleneck().reset_stats();
  begin_measurement(extra);
}

void DumbbellRun::begin_measurement(const Probes& extra) {
  meter_.begin();
  tele.add_bottleneck_probes(topo.bottleneck());
  for (const auto& [column, probe] : extra) tele.add_probe(column, probe);
  tele.start(sim.now() + controls_.telemetry.sample_interval);
}

void DumbbellRun::sample_queue(sim::SimTime interval) {
  queue_ticker_ = std::make_unique<stats::PeriodicTicker>(sim, interval, [this] {
    const auto q = static_cast<std::size_t>(topo.bottleneck().occupancy_packets());
    if (q >= occupancy_counts_.size()) occupancy_counts_.resize(q + 1, 0);
    ++occupancy_counts_[q];
    occupancy_.add(static_cast<double>(q));
  });
  queue_ticker_->start(sim.now() + interval);
}

void DumbbellRun::measure(const telemetry::ConvergenceConfig* convergence, bool early_exit) {
  // Steady-state detection over the measurement window, fed by its own
  // delta-based probe on the telemetry cadence. Runs whenever metrics are
  // collected (to document settling time) or early exit is requested.
  const sim::SimTime interval = controls_.telemetry.sample_interval;
  if (convergence != nullptr && (controls_.telemetry.metrics || early_exit)) {
    conv_ = std::make_unique<telemetry::ConvergenceDetector>(*convergence);
    net::Link& link = topo.bottleneck();
    conv_ticker_ = std::make_unique<stats::PeriodicTicker>(
        sim, interval,
        [this, &link, det = conv_.get(), interval_sec = interval.to_seconds(),
         prev_bits = link.stats().bits_delivered,
         prev_drops = link.queue().stats().dropped_packets,
         rate = link.rate_bps()]() mutable {
          const std::uint64_t bits = link.stats().bits_delivered;
          const std::uint64_t drops = link.queue().stats().dropped_packets;
          const double util = static_cast<double>(bits - prev_bits) / (rate * interval_sec);
          const double drop_pps = static_cast<double>(drops - prev_drops) / interval_sec;
          prev_bits = bits;
          prev_drops = drops;
          det->observe(sim.now(), util, static_cast<double>(link.occupancy_packets()),
                       drop_pps);
        });
    conv_ticker_->start(sim.now() + interval);
  }

  if (early_exit && conv_) {
    // Interval-bounded chunks: splitting run_until at times where the only
    // due work is the sampler tick itself preserves event order exactly, so
    // a run that never converges early matches the single-run_until run.
    while (sim.now() < end_ && !conv_->converged()) {
      tele.run_guarded(std::min(end_, sim.now() + interval));
    }
    if (sim.now() < end_) conv_->mark_truncated();
  } else {
    tele.run_guarded(end_);
  }

  if (auditor_) {
    auditor_->audit_now();
    auditor_->require_clean();
  }
}

double DumbbellRun::drop_fraction() noexcept {
  const net::Link& link = topo.bottleneck();
  const std::uint64_t dropped = link.queue().stats().dropped_packets;
  // Everything offered to the link either got delivered, is still queued, or
  // was dropped (the in-service packet is a ±1 rounding).
  const std::uint64_t offered = link.stats().packets_delivered +
                                static_cast<std::uint64_t>(link.queue().size_packets()) +
                                dropped;
  return offered > 0 ? static_cast<double>(dropped) / static_cast<double>(offered) : 0.0;
}

std::uint64_t DumbbellRun::fault_drops() noexcept {
  std::uint64_t total = 0;
  for (const net::Link& link : topo.links()) total += link.fault_stats().total();
  return total;
}

std::vector<double> DumbbellRun::queue_tail() const {
  std::vector<double> tail;
  if (occupancy_.count() == 0) return tail;
  tail.resize(occupancy_counts_.size() + 1, 0.0);
  const auto samples = static_cast<double>(occupancy_.count());
  double above = 0.0;
  for (std::size_t b = occupancy_counts_.size(); b-- > 0;) {
    above += static_cast<double>(occupancy_counts_[b]);
    tail[b] = above / samples;
  }
  return tail;
}

TelemetryResult DumbbellRun::finish() {
  if (conv_) conv_->export_into(sim.metrics());
  return tele.finish();
}

std::int64_t DumbbellRun::peak_backlog_packets() noexcept {
  const auto* queue = dynamic_cast<const net::DropTailQueue*>(&topo.bottleneck().queue());
  return queue == nullptr ? -1 : queue->peak_backlog_packets();
}

std::int64_t bisect_buffer(std::int64_t lo, std::int64_t hi,
                           const std::function<BufferProbe(std::int64_t)>& probe) {
  require(lo >= 1 && hi >= lo, "buffer bisection: need 1 <= lo <= hi");
  // The widest-reaching outcome so far; it stands for every buffer from its
  // reproduced_from up.
  std::optional<BufferProbe> known;
  const auto ok = [&](std::int64_t buffer) {
    if (known && buffer >= known->reproduced_from) return known->ok;
    const BufferProbe fresh = probe(buffer);
    if (fresh.reproduced_from != BufferProbe::kOwnBufferOnly &&
        (!known || fresh.reproduced_from < known->reproduced_from)) {
      known = fresh;
    }
    return fresh.ok;
  };
  if (!ok(hi)) return hi;  // unreachable within range
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (ok(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace rbs::experiment
