#include "experiment/mixed_flow_experiment.hpp"

#include <cmath>
#include <memory>

#include "traffic/long_flow_workload.hpp"
#include "traffic/short_flow_workload.hpp"
#include "traffic/udp_source.hpp"

namespace rbs::experiment {

namespace {
/// Above every long-flow id (1, 2, ...), below every short-flow id.
constexpr net::FlowId kUdpFlow = 900'000;
}  // namespace

MixedFlowExperimentResult run_mixed_flow_experiment(const MixedFlowExperimentConfig& config) {
  require(config.num_long_flows >= 0, "mixed experiment: num_long_flows must be >= 0");
  require(config.num_short_leaves >= 1, "mixed experiment: num_short_leaves must be >= 1");
  require(config.short_flow_load > 0, "mixed experiment: short_flow_load must be > 0");
  require(std::isfinite(config.short_flow_load),
          "mixed experiment: short_flow_load must be finite");
  require(config.udp_load >= 0, "mixed experiment: udp_load must be >= 0");
  require(std::isfinite(config.udp_load), "mixed experiment: udp_load must be finite");
  // Long-flow throughput is normalized by the window length.
  require(config.measure > sim::SimTime::zero(), "mixed experiment: measure must be > 0");
  DumbbellRun run{config, dumbbell_for(config, config.num_long_flows + config.num_short_leaves),
                  config.warmup, config.measure};
  sim::Simulation& sim = run.sim;
  net::Dumbbell& topo = run.topo;

  // Long-lived flows on the leading `num_long_flows` leaves.
  traffic::LongFlowWorkloadConfig lf_cfg;
  lf_cfg.tcp = config.tcp;
  lf_cfg.num_flows = config.num_long_flows;
  traffic::LongFlowWorkload long_flows{sim, topo, lf_cfg};

  // Short flows on the remaining leaves.
  std::unique_ptr<traffic::FlowSizeDistribution> sizes;
  if (config.short_sizing == ShortFlowSizing::kPareto) {
    sizes = std::make_unique<traffic::ParetoFlowSize>(config.pareto_alpha,
                                                      config.pareto_min_packets,
                                                      config.pareto_max_packets);
  } else {
    sizes = std::make_unique<traffic::FixedFlowSize>(config.short_flow_packets);
  }
  traffic::ShortFlowWorkloadConfig sf_cfg;
  sf_cfg.tcp = config.tcp;
  sf_cfg.leaves = {config.num_long_flows, config.num_short_leaves};
  sf_cfg.arrivals_per_sec = traffic::arrival_rate_for_load(
      config.short_flow_load, config.bottleneck_rate, sizes->mean(),
      config.tcp.segment);
  traffic::ShortFlowWorkload short_flows{sim, topo, *sizes, sf_cfg};

  // Optional non-reactive UDP share, Poisson packet gaps.
  std::unique_ptr<traffic::UdpSource> udp;
  std::unique_ptr<traffic::UdpSink> udp_sink;
  if (config.udp_load > 0) {
    const int leaf = config.num_long_flows;  // first short leaf
    traffic::UdpSourceConfig udp_cfg;
    udp_cfg.rate = config.udp_load * config.bottleneck_rate;
    udp_cfg.packet_size = config.tcp.segment;
    udp_cfg.poisson_gaps = true;
    udp_sink = std::make_unique<traffic::UdpSink>(topo.receiver(leaf), kUdpFlow);
    udp = std::make_unique<traffic::UdpSource>(sim, topo.sender(leaf),
                                               topo.receiver(leaf).id(), kUdpFlow, udp_cfg);
    udp->start(sim::SimTime::zero());
  }

  run.arm([&](check::InvariantAuditor& auditor) {
    auditor.add("short_flows", short_flows);
    auditor.add("long_flows", long_flows);
  });
  run.warm_up({{"cwnd_total_pkts", [&long_flows] { return long_flows.total_cwnd(); }},
               {"flows_active", [&short_flows] {
                  return static_cast<double>(short_flows.flows_active());
                }}});
  const auto measure_start = sim.now();

  // Per-flow rollup: short flows report at reap time (measurement-window
  // starters only, mirroring afct_filtered); long flows report once at the
  // end of the run.
  if (run.tele.flow_stats() != nullptr) {
    short_flows.on_flow_complete = [&run, measure_start](const tcp::TcpSource& src) {
      if (src.start_time() >= measure_start) run.tele.record_tcp_flow(src, run.sim.now());
    };
  }

  std::uint64_t long_flow_bits = 0;
  topo.bottleneck().on_delivered = [&](const net::Packet& p) {
    if (p.kind == net::PacketKind::kTcpData && p.flow < kUdpFlow) {
      long_flow_bits += static_cast<std::uint64_t>(p.size_bytes) * 8;
    }
  };

  run.sample_queue(sim::SimTime::milliseconds(10));
  run.measure();

  MixedFlowExperimentResult result;
  result.utilization = run.utilization();
  const auto afct = short_flows.completions().afct_filtered(measure_start);
  result.afct_seconds = afct.mean();
  result.short_flows_completed = afct.count();
  result.mean_queue_packets = run.mean_queue_packets();
  result.mean_rtt_sec = topo.mean_rtt().to_seconds();
  result.bdp_packets = topo.bdp_packets(config.tcp.segment);
  result.long_flow_throughput_bps =
      static_cast<double>(long_flow_bits) / config.measure.to_seconds();
  result.drop_probability = run.drop_fraction();
  result.fault_drops = run.fault_drops();
  if (run.tele.flow_stats() != nullptr) {
    for (int i = 0; i < long_flows.num_flows(); ++i) {
      run.tele.record_tcp_flow(long_flows.source(i), sim.now());
    }
  }
  result.telemetry = run.finish();
  return result;
}

}  // namespace rbs::experiment
