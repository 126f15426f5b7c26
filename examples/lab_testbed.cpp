// lab_testbed — recreate the paper's §5.2 laboratory methodology in
// simulation: a Harpoon-style closed-loop session workload (file transfers
// with think times, heavy-tailed sizes) offered to a router whose interface
// queue is resized between runs, with an optional event trace of one run
// for spot-checks — the workflow of the paper's Cisco GSR experiment.
//
//   $ ./lab_testbed                  # sweep 0.5x/1x/2x/3x of the sqrt rule
//   $ ./lab_testbed --trace out.json # also trace the 1.0x run (Chrome JSON,
//                                    # open in Perfetto)
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/sizing_rules.hpp"
#include "experiment/reporting.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "stats/utilization.hpp"
#include "telemetry/trace.hpp"
#include "traffic/session_workload.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const char* trace_path = nullptr;
  if (argc > 1) {
    if (argc != 3 || std::strcmp(argv[1], "--trace") != 0) {
      std::fprintf(stderr, "usage: lab_testbed [--trace PATH]\n");
      return 2;
    }
    trace_path = argv[2];
  }

  // The testbed: OC3 bottleneck, 240 user sessions with heavy-tailed file
  // sizes (mean ~60 pkts) and 300 ms think time — offered demand right at
  // link capacity, so the closed loop keeps the bottleneck congested.
  const double rate = 155e6;
  const int leaves = 60;
  const int sessions_per_leaf = 4;
  const double rtt_sec = 0.080;
  const int effective_flows = leaves * sessions_per_leaf;
  const auto rule = core::sqrt_rule_packets(rtt_sec, rate, effective_flows, 1000);

  std::printf("lab testbed — OC3, %d Harpoon-style sessions (Pareto sizes, 0.3 s think),\n"
              "interface queue resized between runs; sqrt rule = %lld pkts\n\n",
              effective_flows, static_cast<long long>(rule));

  experiment::TablePrinter table{{"queue (pkts)", "multiple", "utilization",
                                  "transfers done", "median-ish AFCT (ms)", "drops"}};

  for (const double mult : {0.5, 1.0, 2.0, 3.0}) {
    // The ring keeps the most recent window of the run: its measured tail.
    std::unique_ptr<telemetry::TraceSession> trace;
    if (trace_path != nullptr && mult == 1.0) {
      trace = std::make_unique<telemetry::TraceSession>();
    }
    sim::Simulation sim{7};
    sim.set_trace(trace.get());
    net::DumbbellConfig topo_cfg;
    topo_cfg.num_leaves = leaves;
    topo_cfg.bottleneck_rate = core::BitsPerSec{rate};
    topo_cfg.buffer_packets =
        std::max<std::int64_t>(4, static_cast<std::int64_t>(std::llround(mult * rule)));
    net::Dumbbell topo{sim, topo_cfg};

    traffic::ParetoFlowSize sizes{1.1, 10, 50'000};
    traffic::SessionWorkloadConfig wl_cfg;
    wl_cfg.sessions_per_leaf = sessions_per_leaf;
    wl_cfg.mean_think_time_sec = 0.3;
    traffic::SessionWorkload workload{sim, topo, sizes, wl_cfg};

    sim.run_until(sim::SimTime::seconds(10));  // warm-up
    topo.bottleneck().reset_stats();
    const auto measure_start = sim.now();
    stats::UtilizationMeter meter{sim, topo.bottleneck()};
    meter.begin();
    sim.run_until(sim::SimTime::seconds(40));

    const auto afct = workload.completions().afct_filtered(measure_start);
    table.add_row(
        {experiment::format("%lld", static_cast<long long>(topo_cfg.buffer_packets)),
         experiment::format("%.1f x", mult),
         experiment::format("%.2f%%", 100 * meter.utilization()),
         experiment::format("%llu", static_cast<unsigned long long>(afct.count())),
         experiment::format("%.0f", 1e3 * afct.mean()),
         experiment::format("%llu",
                            static_cast<unsigned long long>(
                                topo.bottleneck().queue().stats().dropped_packets))});

    if (trace) {
      if (!trace->write_chrome_json(trace_path)) return 1;  // the writer reports why
      std::printf("trace of the 1.0x run: %s (%zu events; open in Perfetto)\n\n", trace_path,
                  trace->size());
    }
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("reading the table: like the paper's GSR runs, utilization climbs steeply\n"
              "around the sqrt rule and flattens by 2-3x. Because sessions are closed-loop\n"
              "(users pause between transfers, and slow transfers delay the next request),\n"
              "sub-rule buffers also show up as fewer completed transfers and longer AFCT —\n"
              "loss-driven timeouts hurt a closed loop more than queueing delay does.\n");
  return 0;
}
