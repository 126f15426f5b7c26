#include "experiment/short_flow_experiment.hpp"

#include <algorithm>
#include <cmath>

#include "traffic/short_flow_workload.hpp"

namespace rbs::experiment {

namespace {

ShortFlowExperimentResult run_short_flows(const ShortFlowExperimentConfig& config,
                                          bool sample_queue) {
  require(config.load > 0, "short-flow experiment: load must be > 0");
  require(std::isfinite(config.load), "short-flow experiment: load must be finite");
  DumbbellRun run{config, dumbbell_for(config, config.num_leaves), config.warmup,
                  config.measure};

  traffic::FixedFlowSize sizes{config.flow_packets};
  traffic::ShortFlowWorkloadConfig wl_cfg;
  wl_cfg.tcp = config.tcp;
  wl_cfg.arrivals_per_sec = traffic::arrival_rate_for_load(
      config.load, config.bottleneck_rate, sizes.mean(), config.tcp.segment);
  traffic::ShortFlowWorkload workload{run.sim, run.topo, sizes, wl_cfg};

  run.arm([&workload](check::InvariantAuditor& auditor) { auditor.add("short_flows", workload); });
  run.warm_up({{"flows_active", [&workload] {
                  return static_cast<double>(workload.flows_active());
                }}});
  // Only flows that start inside the measurement window count toward AFCT.
  const auto measure_start = run.sim.now();

  // Per-flow harvest at reap time, armed at measurement start so warmup
  // completions stay out of the rollup (mirroring afct_filtered). The hub
  // sees every completed flow once; memory stays bounded by the active set.
  if (run.tele.flow_stats() != nullptr) {
    workload.on_flow_complete = [&run, measure_start](const tcp::TcpSource& src) {
      if (src.start_time() >= measure_start) run.tele.record_tcp_flow(src, run.sim.now());
    };
  }

  // Sample the queue once per packet service time — fine-grained enough to
  // catch burst-scale excursions.
  if (sample_queue) {
    const double pkt_time_sec =
        8.0 * static_cast<double>(config.tcp.segment.count()) / config.bottleneck_rate.bps();
    run.sample_queue(sim::SimTime::from_seconds(std::max(pkt_time_sec, 1e-6)));
  }
  run.measure(&config.convergence, config.convergence_early_exit);

  ShortFlowExperimentResult result;
  const auto afct = workload.completions().afct_filtered(measure_start);
  result.afct_seconds = afct.mean();
  result.flows_completed = afct.count();
  result.utilization = run.utilization();
  result.mean_queue_packets = run.mean_queue_packets();
  result.mean_rtt_sec = run.topo.mean_rtt().to_seconds();
  result.drop_probability = run.drop_fraction();
  result.queue_tail = run.queue_tail();
  result.fault_drops = run.fault_drops();
  result.peak_backlog_packets = run.peak_backlog_packets();
  result.telemetry = run.finish();
  return result;
}

}  // namespace

ShortFlowExperimentResult run_short_flow_experiment(const ShortFlowExperimentConfig& config) {
  return run_short_flows(config, /*sample_queue=*/true);
}

ShortFlowExperimentResult detail::run_short_flow_probe(const ShortFlowExperimentConfig& config) {
  return run_short_flows(config, /*sample_queue=*/false);
}

std::int64_t min_buffer_for_afct(ShortFlowExperimentConfig config, double baseline_afct_sec,
                                 double afct_penalty, std::int64_t lo, std::int64_t hi) {
  require(baseline_afct_sec > 0, "AFCT bisection: baseline AFCT must be > 0");
  const double threshold = baseline_afct_sec * (1.0 + afct_penalty);
  return bisect_buffer(lo, hi, [&](std::int64_t buffer) {
    config.buffer_packets = buffer;
    const auto r = detail::run_short_flow_probe(config);
    // No completed flow is no evidence: the empty mean of 0 would pass.
    return drop_free_probe(r.flows_completed > 0 && r.afct_seconds <= threshold, buffer,
                           r.peak_backlog_packets);
  });
}

}  // namespace rbs::experiment
