#include "experiment/long_flow_experiment.hpp"

#include <algorithm>
#include <memory>

#include "stats/delay_recorder.hpp"
#include "traffic/long_flow_workload.hpp"

namespace rbs::experiment {

namespace {

LongFlowExperimentResult run_long_flows(const LongFlowExperimentConfig& config,
                                        bool sample_queue) {
  require(config.num_flows >= 1, "long-flow experiment: num_flows must be >= 1");
  net::DumbbellConfig topo_cfg = dumbbell_for(config, config.num_flows);
  topo_cfg.discipline = config.discipline;
  topo_cfg.red = config.red;
  DumbbellRun run{config, topo_cfg, config.warmup, config.measure};

  traffic::LongFlowWorkloadConfig wl_cfg;
  wl_cfg.tcp = config.tcp;
  wl_cfg.sink = config.sink;
  wl_cfg.start_stagger = std::min(config.warmup, sim::SimTime::seconds(5));
  traffic::LongFlowWorkload workload{run.sim, run.topo, wl_cfg};

  run.arm([&workload](check::InvariantAuditor& auditor) { auditor.add("tcp", workload); });
  run.warm_up({{"cwnd_total_pkts", [&workload] { return workload.total_cwnd(); }}});
  const tcp::TcpSourceStats tcp_at_warmup = workload.total_stats();
  if (sample_queue) run.sample_queue(sim::SimTime::milliseconds(10));

  LongFlowExperimentResult result;

  stats::DelayRecorder delays;
  std::vector<std::int64_t> una_at_start;
  if (config.record_delays) {
    run.topo.bottleneck().on_queue_delay = [&delays](sim::SimTime d) { delays.record(d); };
    una_at_start.reserve(static_cast<std::size_t>(config.num_flows));
    for (int i = 0; i < config.num_flows; ++i) {
      una_at_start.push_back(workload.source(i).snd_una());
    }
  }

  std::unique_ptr<stats::PeriodicSampler> cwnd_sampler;
  if (config.cwnd_sample_interval > sim::SimTime::zero()) {
    if (config.sample_per_flow_cwnd) {
      result.per_flow_cwnd.assign(static_cast<std::size_t>(config.num_flows), {});
    }
    cwnd_sampler = std::make_unique<stats::PeriodicSampler>(
        run.sim, config.cwnd_sample_interval,
        [&workload, &result, per_flow = config.sample_per_flow_cwnd] {
          if (per_flow) {
            const auto snapshot = workload.cwnd_snapshot();
            for (std::size_t i = 0; i < snapshot.size(); ++i) {
              result.per_flow_cwnd[i].push_back(snapshot[i]);
            }
          }
          return workload.total_cwnd();
        });
    cwnd_sampler->start(run.sim.now() + config.cwnd_sample_interval);
  }

  run.measure(&config.convergence, config.convergence_early_exit);

  result.utilization = run.utilization();
  result.loss_rate = run.drop_fraction();
  result.bottleneck_drops = run.topo.bottleneck().queue().stats().dropped_packets;
  result.mean_queue_packets = run.mean_queue_packets();
  result.mean_rtt_sec = run.topo.mean_rtt().to_seconds();
  result.bdp_packets = run.topo.bdp_packets(config.tcp.segment);
  // Report TCP counters over the measurement window only, consistent with
  // the link/queue statistics.
  result.tcp_stats = workload.total_stats() - tcp_at_warmup;
  if (cwnd_sampler) result.total_cwnd = std::move(cwnd_sampler->series());

  if (config.record_delays) {
    result.delay_mean_sec = delays.mean_seconds();
    result.delay_p50_sec = delays.quantile_seconds(0.50);
    result.delay_p99_sec = delays.quantile_seconds(0.99);
    std::vector<double> goodput;
    goodput.reserve(una_at_start.size());
    for (int i = 0; i < config.num_flows; ++i) {
      goodput.push_back(static_cast<double>(workload.source(i).snd_una() -
                                            una_at_start[static_cast<std::size_t>(i)]));
    }
    result.fairness = stats::jain_fairness_index(goodput);
  }
  result.fault_drops = run.fault_drops();
  result.peak_backlog_packets = run.peak_backlog_packets();

  // Per-flow harvest: long flows never complete, so each reports its
  // lifetime-to-date summary (completed = false) at measurement end.
  if (run.tele.flow_stats() != nullptr) {
    for (int i = 0; i < config.num_flows; ++i) {
      run.tele.record_tcp_flow(workload.source(i), run.sim.now());
    }
  }
  result.telemetry = run.finish();
  return result;
}

}  // namespace

LongFlowExperimentResult run_long_flow_experiment(const LongFlowExperimentConfig& config) {
  return run_long_flows(config, /*sample_queue=*/true);
}

LongFlowExperimentResult detail::run_long_flow_probe(const LongFlowExperimentConfig& config) {
  return run_long_flows(config, /*sample_queue=*/false);
}

std::int64_t min_buffer_for_utilization(LongFlowExperimentConfig config,
                                        double target_utilization, std::int64_t lo,
                                        std::int64_t hi, const BufferProbePrepare& prepare) {
  return bisect_buffer(lo, hi, [&](std::int64_t buffer) -> BufferProbe {
    config.buffer_packets = buffer;
    if (prepare) prepare(config, buffer);
    const auto r = detail::run_long_flow_probe(config);
    const bool ok = r.utilization >= target_utilization;
    // The hook may tie the run to the buffer (DCTCP's K): no reuse then.
    if (prepare) return ok;
    return drop_free_probe(ok, buffer, r.peak_backlog_packets);
  });
}

}  // namespace rbs::experiment
