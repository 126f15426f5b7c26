#include "experiment/telemetry_hookup.hpp"

#include <stdexcept>

#include "net/red_queue.hpp"

namespace rbs::experiment {

ExperimentTelemetry::ExperimentTelemetry(sim::Simulation& sim, const TelemetryConfig& config)
    : sim_{sim}, config_{config} {
  sim_.set_trace(config_.trace);
  if (config_.profile) {
    profiler_ = std::make_unique<telemetry::EngineProfiler>();
    sim_.set_profiler(profiler_.get());
  }
  if (config_.metrics) {
    ticker_ = std::make_unique<stats::PeriodicTicker>(sim_, config_.sample_interval,
                                                      [this] { sample_row(); });
  }
  if (config_.flow_stats) {
    telemetry::FlowStatsHub::Config fs;
    fs.top_k = config_.flow_stats_top_k;
    flow_stats_ = std::make_unique<telemetry::FlowStatsHub>(fs);
  }
  if (!config_.flight_recorder_path.empty()) {
    telemetry::FlightRecorder::Config fr;
    fr.path = config_.flight_recorder_path;
    recorder_ = std::make_unique<telemetry::FlightRecorder>(fr);
    recorder_->attach(&sim_.metrics(), config_.trace);
    recorder_->set_clock([&sim = sim_] { return sim.now(); });
  }
}

ExperimentTelemetry::~ExperimentTelemetry() {
  // Detach borrowed/owned observers so the Simulation never outlives them.
  sim_.set_trace(nullptr);
  if (profiler_) sim_.set_profiler(nullptr);
}

void ExperimentTelemetry::add_bottleneck_probes(net::Link& bottleneck) {
  if (!sampling()) return;
  const double interval_sec = config_.sample_interval.to_seconds();

  add_probe("queue_depth_pkts", [&bottleneck] {
    return static_cast<double>(bottleneck.occupancy_packets());
  });

  // Delta-based rates: each sample covers exactly the last interval, so the
  // column mean over the measurement window telescopes to the window-wide
  // rate (the utilization cross-check test relies on this).
  add_probe("utilization", [&bottleneck, interval_sec, prev = bottleneck.stats().bits_delivered,
                            rate = bottleneck.rate_bps()]() mutable {
    const std::uint64_t bits = bottleneck.stats().bits_delivered;
    const double delta = static_cast<double>(bits - prev);
    prev = bits;
    return delta / (rate * interval_sec);
  });

  add_probe("drop_rate_pps", [&bottleneck, interval_sec,
                              prev = bottleneck.queue().stats().dropped_packets]() mutable {
    const std::uint64_t drops = bottleneck.queue().stats().dropped_packets;
    const double delta = static_cast<double>(drops - prev);
    prev = drops;
    return delta / interval_sec;
  });

  if (const auto* red = dynamic_cast<const net::RedQueue*>(&bottleneck.queue())) {
    add_probe("mark_rate_pps", [red, interval_sec, prev = red->marked_packets()]() mutable {
      const std::uint64_t marks = red->marked_packets();
      const double delta = static_cast<double>(marks - prev);
      prev = marks;
      return delta / interval_sec;
    });
  }

  // Scheduler health on the same cadence: live events track workload churn.
  add_probe("events_pending",
            [&sim = sim_] { return static_cast<double>(sim.scheduler().pending_events()); });

  // With flow stats on, track the rollup as it fills: how many flows have
  // reported, and the running median FCT. Constant columns for long-flow
  // runs (which harvest at measurement end), live for short-flow runs.
  if (flow_stats_) {
    add_probe("flows_observed", [hub = flow_stats_.get()] {
      return static_cast<double>(hub->flows());
    });
    add_probe("fct_p50_sec", [hub = flow_stats_.get()] { return hub->fct().quantile(0.50); });
  }
}

void ExperimentTelemetry::add_probe(std::string column, std::function<double()> probe) {
  if (!sampling()) return;
  telemetry::TraceSession* tr = sim_.trace();
  trace_names_.push_back(tr != nullptr ? tr->intern(column) : nullptr);
  series_.columns.push_back(std::move(column));
  probes_.push_back(std::move(probe));
}

void ExperimentTelemetry::start(sim::SimTime first) {
  if (ticker_) ticker_->start(first);
}

void ExperimentTelemetry::sample_row() {
  const sim::SimTime now = sim_.now();
  std::vector<double> row;
  row.reserve(probes_.size());
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    const double v = probes_[i]();
    row.push_back(v);
    if (trace_names_[i] != nullptr) {
      RBS_TRACE_COUNTER(sim_.trace(), "metrics", trace_names_[i], now, v);
    }
  }
  series_.times_ps.push_back(now.ps());
  series_.rows.push_back(std::move(row));
}

void ExperimentTelemetry::record_tcp_flow(const tcp::TcpSource& src, sim::SimTime now) {
  if (!flow_stats_ || !src.started()) return;
  telemetry::FlowObservation obs;
  obs.flow_id = static_cast<std::uint64_t>(src.flow());
  obs.completed = src.finished();
  const sim::SimTime end = obs.completed ? src.finish_time() : now;
  obs.fct = end - src.start_time();
  const double elapsed = obs.fct.to_seconds();
  obs.bytes_acked =
      static_cast<std::uint64_t>(src.snd_una()) *
      static_cast<std::uint64_t>(src.config().segment.count());
  obs.goodput = core::BitsPerSec{
      elapsed > 0.0 ? static_cast<double>(obs.bytes_acked) * 8.0 / elapsed : 0.0};
  obs.retransmits = src.stats().retransmissions;
  obs.peak_cwnd_packets = src.cwnd_peak();
  obs.ecn_marks = src.stats().ecn_reductions;
  obs.cca = tcp::flavor_name(src.config().flavor);
  flow_stats_->record_flow(obs);
}

void ExperimentTelemetry::arm_crash_probes(net::Link& bottleneck) {
  if (!recorder_) return;
  recorder_->add_state_probe("queue_depth_pkts", [&bottleneck] {
    return static_cast<double>(bottleneck.occupancy_packets());
  });
  recorder_->add_state_probe("queue_dropped_packets", [&bottleneck] {
    return static_cast<double>(bottleneck.queue().stats().dropped_packets);
  });
  recorder_->add_state_probe("link_bits_delivered", [&bottleneck] {
    return static_cast<double>(bottleneck.stats().bits_delivered);
  });
  recorder_->add_state_probe("events_pending", [&sim = sim_] {
    return static_cast<double>(sim.scheduler().pending_events());
  });
  recorder_->add_state_probe("events_executed", [&sim = sim_] {
    return static_cast<double>(sim.scheduler().executed_events());
  });
}

void ExperimentTelemetry::attach_auditor(check::InvariantAuditor& auditor) {
  if (!recorder_) return;
  auto prev = std::move(auditor.on_violation);
  auditor.on_violation = [rec = recorder_.get(), prev = std::move(prev)](
                             const check::Violation& v) {
    if (prev) prev(v);
    rec->note(v.subsystem + ": " + v.message);
    // Dump at violation time, while the world is still in the violating
    // state — require_clean()'s later throw unwinds past it.
    rec->dump("auditor violation: " + v.subsystem);
  };
}

void ExperimentTelemetry::run_guarded(sim::SimTime until) {
  if (!recorder_) {
    sim_.run_until(until);
    return;
  }
  try {
    sim_.run_until(until);
  } catch (const std::exception& e) {
    recorder_->dump(std::string{"uncaught exception: "} + e.what());
    throw;
  } catch (...) {
    recorder_->dump("uncaught exception: unknown");
    throw;
  }
}

TelemetryResult ExperimentTelemetry::finish() {
  TelemetryResult out;
  out.collected = config_.metrics || config_.profile || config_.trace != nullptr;
  telemetry::MetricsRegistry& registry = sim_.metrics();

  // End-of-run engine gauges: slab-pool high-water mark and queue shape.
  registry.gauge("engine.pool_slots").set(static_cast<double>(sim_.scheduler().pool_capacity()));
  registry.gauge("engine.events_pending")
      .set(static_cast<double>(sim_.scheduler().pending_events()));
  registry.counter("engine.events_executed").reset();
  registry.counter("engine.events_executed").add(sim_.scheduler().executed_events());

  // Ring overflow visibility: how much of the run scrolled out of the trace
  // buffer. Only registered when tracing ran, so untraced snapshots (and
  // their goldens) are unchanged.
  if (config_.trace != nullptr) {
    registry.gauge("trace.dropped_records")
        .set(static_cast<double>(config_.trace->dropped_events()));
  }

  if (profiler_) {
    profiler_->export_into(registry);
    out.profile_summary = profiler_->summary();
    // Ready-queue shape under profiling only: these gauges differ between
    // scheduler backends, and the bitwise cross-backend golden pins the
    // unprofiled snapshot, so they must not leak into default runs.
    // rbs-analyze: allow(R8) -- profile-only gauges; results never observe them
    const sim::Scheduler::WheelStats ws = sim_.scheduler().wheel_stats();
    registry.gauge("engine.wheel.entries").set(static_cast<double>(ws.wheel_entries));
    registry.gauge("engine.wheel.occupied_buckets")
        .set(static_cast<double>(ws.occupied_buckets));
    registry.gauge("engine.wheel.overflow_entries")
        .set(static_cast<double>(ws.overflow_entries));
    registry.gauge("engine.wheel.due_entries").set(static_cast<double>(ws.due_entries));
    registry.counter("engine.wheel.cascades").reset();
    registry.counter("engine.wheel.cascades").add(ws.cascades);
  }
  if (flow_stats_) {
    flow_stats_->export_into(registry);
    out.flow_stats = *flow_stats_;
    out.flow_stats_collected = true;
    out.collected = true;
  }
  if (ticker_) {
    ticker_->stop();
    out.series = std::move(series_);
  }
  out.snapshot = registry.snapshot();
  return out;
}

}  // namespace rbs::experiment
