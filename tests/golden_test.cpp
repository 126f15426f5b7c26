// Golden regression tests: pin the headline reproduction numbers for fixed
// seeds, so any change to engine, TCP, or measurement semantics that would
// silently shift EXPERIMENTS.md shows up as a test failure.
//
// Tolerances are loose enough to survive floating-point library differences
// (exp/log inside the RNG transforms) but tight enough to catch behavioral
// drift. If a deliberate protocol change moves these numbers, update both
// the goldens and EXPERIMENTS.md in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/auditor.hpp"
#include "core/short_flow_model.hpp"
#include "experiment/long_flow_experiment.hpp"
#include "experiment/mixed_flow_experiment.hpp"
#include "experiment/scenarios.hpp"
#include "experiment/short_flow_experiment.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "stats/fct_tracker.hpp"
#include "traffic/flow_size.hpp"
#include "traffic/session_workload.hpp"
#include "traffic/trace_workload.hpp"

namespace rbs {
namespace {

using sim::SimTime;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV of a value sequence written in exact (hexfloat) form.
std::uint64_t fnv1a(const std::vector<double>& values) {
  std::string text;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%a,", v);
    text += buf;
  }
  return fnv1a(text);
}

TEST(Golden, SingleFlowRuleOfThumbUtilization) {
  // EXPERIMENTS.md, Fig 3 row: 100.00% at B = BDP.
  auto cfg = experiment::scenarios::single_flow(115);
  const auto r = run_long_flow_experiment(cfg);
  EXPECT_NEAR(r.utilization, 1.000, 0.002);
}

TEST(Golden, SingleFlowUnderbufferedUtilization) {
  // EXPERIMENTS.md, Fig 4 row: ~89% at B = BDP/4.
  auto cfg = experiment::scenarios::single_flow(28);
  const auto r = run_long_flow_experiment(cfg);
  EXPECT_NEAR(r.utilization, 0.891, 0.015);
}

TEST(Golden, Oc3HundredFlowsAtSqrtRule) {
  // EXPERIMENTS.md, Fig 10, n=100, 1.0x row: 97.3%.
  auto cfg = experiment::scenarios::oc3_lab(100, 155);
  const auto r = run_long_flow_experiment(cfg);
  EXPECT_NEAR(r.utilization, 0.973, 0.01);
}

TEST(Golden, Oc3HundredFlowsAtHalfRule) {
  // EXPERIMENTS.md, Fig 10, n=100, 0.5x row: 89.3%.
  auto cfg = experiment::scenarios::oc3_lab(100, 78);
  const auto r = run_long_flow_experiment(cfg);
  EXPECT_NEAR(r.utilization, 0.893, 0.015);
}

TEST(Golden, Oc3FourHundredFlowsAtRule) {
  // EXPERIMENTS.md, Fig 10, n=400, 1.0x row: 99.7%.
  auto cfg = experiment::scenarios::oc3_lab(400, 78);
  const auto r = run_long_flow_experiment(cfg);
  EXPECT_NEAR(r.utilization, 0.997, 0.005);
}

TEST(Golden, ShortFlowBaselineAfctAt80Mbps) {
  // EXPERIMENTS.md, Fig 8: 393 ms baseline AFCT at 80 Mb/s, load 0.8.
  auto cfg = experiment::scenarios::fig8_short_flows(core::BitsPerSec{80e6}, 4000);
  cfg.measure = SimTime::seconds(25);
  const auto r = run_short_flow_experiment(cfg);
  EXPECT_NEAR(r.afct_seconds, 0.393, 0.02);
  EXPECT_NEAR(r.utilization, 0.80, 0.03);
}

// --- No-fault equivalence -------------------------------------------------
//
// The fault layer's zero-cost contract: an experiment configured with an
// empty FaultSchedule must be BITWISE identical to the same run before the
// fault subsystem existed. The constants below (hexfloat, so they are exact)
// were captured at the commit immediately preceding the fault layer. Any
// drift here means the injector perturbed the event order, consumed RNG
// state, or polluted a stats path even when disarmed.

TEST(Golden, NoFaultLongFlowRunIsBitwiseIdenticalToPreFaultBaseline) {
  experiment::LongFlowExperimentConfig cfg;
  cfg.num_flows = 20;
  cfg.buffer_packets = 60;
  cfg.bottleneck_rate = core::BitsPerSec{50e6};
  cfg.warmup = SimTime::seconds(2);
  cfg.measure = SimTime::seconds(5);
  cfg.seed = 7;
  cfg.record_delays = true;
  cfg.telemetry.metrics = true;
  cfg.faults = fault::FaultSchedule{};  // explicitly empty
  const auto r = run_long_flow_experiment(cfg);

  EXPECT_EQ(r.utilization, 0x1.6a98244e93e1dp-1);  // 0.70819200000000004
  EXPECT_EQ(r.loss_rate, 0x1.c0e41e86d5617p-5);
  EXPECT_EQ(r.bottleneck_drops, 1283u);
  EXPECT_EQ(r.tcp_stats.data_packets_sent, 23441u);
  EXPECT_EQ(r.tcp_stats.timeouts, 52u);
  EXPECT_EQ(r.fault_drops, 0u);
  // The whole observable surface, not just headline numbers: metrics
  // snapshot JSON and the telemetry time series hash to the same bits.
  // (Re-pinned when histograms gained p50/p90/p99 in their snapshot and the
  // sampler gained convergence tracking; the headline numbers above did not
  // move — flow-stats-off runs stay byte-identical on every pre-existing
  // field.)
  EXPECT_EQ(fnv1a(r.telemetry.snapshot.to_json()), 4802808256603441306ull);
  EXPECT_EQ(fnv1a(r.telemetry.series.to_csv()), 7373469491668119683ull);
}

TEST(Golden, SchedulerBackendsProduceBitwiseIdenticalRuns) {
  // The ready-queue backend is an implementation detail: the timing wheel
  // and the reference heap must fire every event in the same order, so the
  // entire observable surface — headline numbers, TCP internals, metrics
  // JSON, telemetry series — must match bit for bit between backends.
  experiment::LongFlowExperimentConfig cfg;
  cfg.num_flows = 20;
  cfg.buffer_packets = 60;
  cfg.bottleneck_rate = core::BitsPerSec{50e6};
  cfg.warmup = SimTime::seconds(1);
  cfg.measure = SimTime::seconds(2);
  cfg.seed = 7;
  cfg.record_delays = true;
  cfg.telemetry.metrics = true;

  cfg.scheduler_backend = sim::SchedulerBackend::kHeap;
  const auto heap = run_long_flow_experiment(cfg);
  cfg.scheduler_backend = sim::SchedulerBackend::kWheel;
  const auto wheel = run_long_flow_experiment(cfg);

  EXPECT_EQ(heap.utilization, wheel.utilization);
  EXPECT_EQ(heap.loss_rate, wheel.loss_rate);
  EXPECT_EQ(heap.mean_queue_packets, wheel.mean_queue_packets);
  EXPECT_EQ(heap.bottleneck_drops, wheel.bottleneck_drops);
  EXPECT_EQ(heap.tcp_stats.data_packets_sent, wheel.tcp_stats.data_packets_sent);
  EXPECT_EQ(heap.tcp_stats.timeouts, wheel.tcp_stats.timeouts);
  EXPECT_EQ(heap.delay_p99_sec, wheel.delay_p99_sec);
  EXPECT_EQ(heap.fairness, wheel.fairness);
  EXPECT_EQ(fnv1a(heap.telemetry.snapshot.to_json()),
            fnv1a(wheel.telemetry.snapshot.to_json()));
  EXPECT_EQ(fnv1a(heap.telemetry.series.to_csv()),
            fnv1a(wheel.telemetry.series.to_csv()));
}

TEST(Golden, NoFaultShortFlowRunIsBitwiseIdenticalToPreFaultBaseline) {
  experiment::ShortFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{20e6};
  cfg.buffer_packets = 40;
  cfg.load = 0.7;
  cfg.flow_packets = 30;
  cfg.warmup = SimTime::seconds(1);
  cfg.measure = SimTime::seconds(5);
  cfg.seed = 11;
  const auto r = run_short_flow_experiment(cfg);

  EXPECT_EQ(r.afct_seconds, 0x1.bd2fa66bce1d6p-2);  // 0.43475208313932734
  EXPECT_EQ(r.utilization, 0x1.75d78811b1d93p-1);
  EXPECT_EQ(r.flows_completed, 278u);
  EXPECT_EQ(r.drop_probability, 0x1.f6dd6acb25a0cp-6);
  EXPECT_EQ(r.fault_drops, 0u);
}

TEST(Golden, NoFaultMixedFlowRunIsBitwiseIdenticalToPreFaultBaseline) {
  experiment::MixedFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{30e6};
  cfg.num_long_flows = 8;
  cfg.num_short_leaves = 8;
  cfg.buffer_packets = 50;
  cfg.short_flow_load = 0.2;
  cfg.short_flow_packets = 20;
  cfg.warmup = SimTime::seconds(2);
  cfg.measure = SimTime::seconds(5);
  cfg.seed = 3;
  const auto r = run_mixed_flow_experiment(cfg);

  EXPECT_EQ(r.utilization, 0x1.50022f3d9397bp-1);
  EXPECT_EQ(r.afct_seconds, 0x1.83cccdf09e60cp-2);
  EXPECT_EQ(r.long_flow_throughput_bps, 0x1.a1a08p+23);
  EXPECT_EQ(r.short_flows_completed, 171u);
  EXPECT_EQ(r.fault_drops, 0u);
}

// --- Full-surface pins ---------------------------------------------------
//
// Checked runs with a fault schedule, metrics and flow stats all on: the
// configuration that exercises every shared step of a dumbbell run (fault
// injector, auditor, warm-up reset, samplers, convergence detector,
// per-flow harvest). Each pin hashes the metrics snapshot, the time series
// and the flow-stats rollup, plus exact headline numbers, and must hold
// under both scheduler backends.

const sim::SchedulerBackend kBothBackends[] = {sim::SchedulerBackend::kHeap,
                                               sim::SchedulerBackend::kWheel};

template <class Config>
void arm_full_surface(Config& cfg, sim::SchedulerBackend backend) {
  cfg.scheduler_backend = backend;
  cfg.checked = true;
  cfg.telemetry.metrics = true;
  cfg.telemetry.flow_stats = true;
  cfg.faults.link_down("bottleneck_fwd", SimTime::milliseconds(2500),
                       SimTime::milliseconds(100));
  cfg.faults.loss_burst("bottleneck_fwd", SimTime::milliseconds(3200),
                        SimTime::milliseconds(300), 0.2);
}

struct SurfaceHashes {
  std::uint64_t snapshot;
  std::uint64_t series;
  std::uint64_t flow_stats;
};

void expect_surface(const experiment::TelemetryResult& t, const SurfaceHashes& want) {
  EXPECT_EQ(fnv1a(t.snapshot.to_json()), want.snapshot);
  EXPECT_EQ(fnv1a(t.series.to_csv()), want.series);
  EXPECT_EQ(fnv1a(t.flow_stats.to_json()), want.flow_stats);
}

experiment::LongFlowExperimentConfig pinned_long(sim::SchedulerBackend backend) {
  experiment::LongFlowExperimentConfig cfg;
  cfg.num_flows = 12;
  cfg.buffer_packets = 40;
  cfg.bottleneck_rate = core::BitsPerSec{20e6};
  cfg.warmup = SimTime::seconds(2);
  cfg.measure = SimTime::seconds(4);
  cfg.seed = 5;
  cfg.record_delays = true;
  cfg.cwnd_sample_interval = SimTime::milliseconds(50);
  cfg.sample_per_flow_cwnd = true;
  arm_full_surface(cfg, backend);
  return cfg;
}

experiment::ShortFlowExperimentConfig pinned_short(sim::SchedulerBackend backend) {
  experiment::ShortFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{20e6};
  cfg.buffer_packets = 40;
  cfg.load = 0.7;
  cfg.flow_packets = 30;
  cfg.num_leaves = 20;
  cfg.warmup = SimTime::seconds(2);
  cfg.measure = SimTime::seconds(4);
  cfg.seed = 9;
  arm_full_surface(cfg, backend);
  return cfg;
}

TEST(GoldenPin, LongFlowFullSurface) {
  for (const auto backend : kBothBackends) {
    SCOPED_TRACE(static_cast<int>(backend));
    const auto r = run_long_flow_experiment(pinned_long(backend));
    EXPECT_EQ(r.utilization, 0x1.3cac083126e98p-1);
    EXPECT_EQ(r.loss_rate, 0x1.c74106598a2afp-6);
    EXPECT_EQ(r.mean_queue_packets, 0x1.d3ffffffffffep+2);
    EXPECT_EQ(r.delay_p99_sec, 0x1.09df259db0cbbp-6);
    EXPECT_EQ(r.fairness, 0x1.b52c940207fe7p-1);
    EXPECT_EQ(r.tcp_stats.data_packets_sent, 6521u);
    EXPECT_EQ(r.tcp_stats.retransmissions, 1143u);
    EXPECT_EQ(r.tcp_stats.acks_received, 6136u);
    EXPECT_EQ(r.fault_drops, 190u);
    EXPECT_EQ(fnv1a(r.total_cwnd.values()), 10679709854566105333ull);
    ASSERT_EQ(r.per_flow_cwnd.size(), 12u);
    EXPECT_EQ(fnv1a(r.per_flow_cwnd[7]), 7856232149316561169ull);
    expect_surface(r.telemetry,
                   {6102300626733119187ull, 15442783162632245649ull, 6801356680487028519ull});
  }
}

TEST(GoldenPin, ShortFlowFullSurface) {
  for (const auto backend : kBothBackends) {
    SCOPED_TRACE(static_cast<int>(backend));
    const auto r = run_short_flow_experiment(pinned_short(backend));
    EXPECT_EQ(r.afct_seconds, 0x1.1196c207b39d2p-1);
    EXPECT_EQ(r.utilization, 0x1.599999999999ap-1);
    EXPECT_EQ(r.drop_probability, 0x1.662f5e1ae889ep-6);
    EXPECT_EQ(r.mean_queue_packets, 0x1.14474538ef35ap+3);
    EXPECT_EQ(r.flows_completed, 202u);
    EXPECT_EQ(r.fault_drops, 193u);
    EXPECT_EQ(fnv1a(r.queue_tail), 13738830173313446984ull);
    expect_surface(r.telemetry,
                   {5628606704096095616ull, 12923636940347988830ull, 2193699363003755930ull});
  }
}

TEST(GoldenPin, MixedFlowFullSurface) {
  for (const auto backend : kBothBackends) {
    SCOPED_TRACE(static_cast<int>(backend));
    experiment::MixedFlowExperimentConfig cfg;
    cfg.bottleneck_rate = core::BitsPerSec{20e6};
    cfg.num_long_flows = 6;
    cfg.num_short_leaves = 10;
    cfg.buffer_packets = 40;
    cfg.short_flow_load = 0.2;
    cfg.short_sizing = experiment::ShortFlowSizing::kPareto;
    cfg.pareto_max_packets = 300;
    cfg.udp_load = 0.05;
    cfg.warmup = SimTime::seconds(2);
    cfg.measure = SimTime::seconds(4);
    cfg.seed = 4;
    arm_full_surface(cfg, backend);
    const auto r = run_mixed_flow_experiment(cfg);
    EXPECT_EQ(r.utilization, 0x1.61d7dbf487fccp-1);
    EXPECT_EQ(r.afct_seconds, 0x1.18c923bd52f5p-2);
    EXPECT_EQ(r.long_flow_throughput_bps, 0x1.d4818p+22);
    EXPECT_EQ(r.drop_probability, 0x1.42fc7a6d48a67p-6);
    EXPECT_EQ(r.mean_queue_packets, 0x1.f23d70a3d70abp+2);
    EXPECT_EQ(r.short_flows_completed, 259u);
    EXPECT_EQ(r.fault_drops, 434u);
    expect_surface(r.telemetry,
                   {8830675566079810873ull, 12086126401124531532ull, 12435606312255177659ull});
  }
}

TEST(GoldenPin, MixedFlowNoLongFlows) {
  // Short flows (and UDP) alone on the mixed runner: the long-flow share
  // is empty, so its stagger stream and flow ids must not be touched.
  for (const auto backend : kBothBackends) {
    SCOPED_TRACE(static_cast<int>(backend));
    experiment::MixedFlowExperimentConfig cfg;
    cfg.bottleneck_rate = core::BitsPerSec{20e6};
    cfg.num_long_flows = 0;
    cfg.num_short_leaves = 8;
    cfg.buffer_packets = 30;
    cfg.short_flow_load = 0.6;
    cfg.short_flow_packets = 25;
    cfg.udp_load = 0.05;
    cfg.warmup = SimTime::seconds(2);
    cfg.measure = SimTime::seconds(4);
    cfg.seed = 6;
    arm_full_surface(cfg, backend);
    const auto r = run_mixed_flow_experiment(cfg);
    EXPECT_EQ(r.utilization, 0x1.45119ce075f7p-1);
    EXPECT_EQ(r.afct_seconds, 0x1.f068773f408e4p-2);
    EXPECT_EQ(r.long_flow_throughput_bps, 0.0);
    EXPECT_EQ(r.drop_probability, 0x1.afb2e931c9653p-9);
    EXPECT_EQ(r.mean_queue_packets, 0x1.3b5c28f5c28f5p+2);
    EXPECT_EQ(r.short_flows_completed, 206u);
    EXPECT_EQ(r.fault_drops, 252u);
    expect_surface(r.telemetry,
                   {2969715211247931511ull, 13917857912206103680ull, 9555513298630531148ull});
  }
}

// --- Workload pins -------------------------------------------------------
//
// The session and trace workloads outside any experiment runner: exact
// flow counters plus a hash of every finished flow's (size, start, finish)
// record in record order, with the invariant auditor on, under both
// scheduler backends.

/// FNV of every finished flow's (size, start, finish), in record order.
std::uint64_t fnv1a(const std::vector<stats::FlowRecord>& records) {
  std::string text;
  for (const auto& r : records) {
    text += std::to_string(r.size_packets) + ',' + std::to_string(r.start.ps()) + ',' +
            std::to_string(r.finish.ps()) + ';';
  }
  return fnv1a(text);
}

net::DumbbellConfig pinned_workload_topo() {
  net::DumbbellConfig cfg;
  cfg.num_leaves = 8;
  cfg.bottleneck_rate = core::BitsPerSec{20e6};
  cfg.buffer_packets = 30;
  return cfg;
}

TEST(GoldenPin, SessionWorkloadSurface) {
  for (const auto backend : kBothBackends) {
    SCOPED_TRACE(static_cast<int>(backend));
    sim::Simulation sim{11, backend};
    net::Dumbbell topo{sim, pinned_workload_topo()};
    check::InvariantAuditor auditor;
    auditor.add("bottleneck.queue", topo.bottleneck().queue());
    sim.enable_auditing(auditor, 500);
    traffic::ParetoFlowSize sizes{1.2, 2, 300};
    traffic::SessionWorkloadConfig cfg;
    cfg.sessions_per_leaf = 3;
    cfg.mean_think_time_sec = 0.2;
    traffic::SessionWorkload wl{sim, topo, sizes, cfg};
    sim.run_until(SimTime::seconds(6));
    EXPECT_EQ(wl.transfers_started(), 418u);
    EXPECT_EQ(wl.transfers_completed(), 409u);
    EXPECT_EQ(wl.sessions_active(), 9);
    wl.stop();
    sim.run_until(SimTime::seconds(7));
    auditor.audit_now();
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(wl.transfers_started(), 418u);
    EXPECT_EQ(wl.transfers_completed(), 418u);
    EXPECT_EQ(wl.sessions_active(), 0);
    EXPECT_EQ(wl.completions().count(), 418u);
    EXPECT_EQ(fnv1a(wl.completions().records()), 10925747386194801152ull);
  }
}

TEST(GoldenPin, TraceWorkloadSurface) {
  std::vector<traffic::TraceRecord> records;
  for (int i = 0; i < 150; ++i) {
    records.push_back({0.031 * i + 0.002 * (i % 7), 1 + (i * 37) % 90});
  }
  for (const auto backend : kBothBackends) {
    SCOPED_TRACE(static_cast<int>(backend));
    sim::Simulation sim{12, backend};
    net::Dumbbell topo{sim, pinned_workload_topo()};
    check::InvariantAuditor auditor;
    auditor.add("bottleneck.queue", topo.bottleneck().queue());
    traffic::TraceWorkload wl{sim, topo, records, traffic::TraceWorkloadConfig{}};
    auditor.add("trace_flows", wl);
    sim.enable_auditing(auditor, 500);
    sim.run_until(SimTime::seconds(5));
    auditor.audit_now();
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(wl.flows_started(), 150u);
    EXPECT_EQ(wl.flows_completed(), 146u);
    EXPECT_EQ(wl.flows_active(), 4u);
    EXPECT_EQ(wl.completions().count(), 146u);
    EXPECT_EQ(fnv1a(wl.completions().records()), 11581834143712812587ull);
  }
}

// Early exit: short, loose detector windows latch at t = 5 s, well inside
// the 10 s window, so these runs really stop early (convergence.truncated =
// 1 is part of the hashed snapshot).

template <class Config>
void arm_early_exit(Config& cfg) {
  cfg.measure = SimTime::seconds(10);
  cfg.convergence_early_exit = true;
  cfg.convergence.window_samples = 5;
  cfg.convergence.stable_windows = 2;
  cfg.convergence.utilization_tolerance = 0.1;
  cfg.convergence.qlen_tolerance = 1.0;
  cfg.convergence.drop_rate_tolerance = 1.0;
}

TEST(GoldenPin, LongFlowEarlyExit) {
  for (const auto backend : kBothBackends) {
    SCOPED_TRACE(static_cast<int>(backend));
    auto cfg = pinned_long(backend);
    arm_early_exit(cfg);
    const auto r = run_long_flow_experiment(cfg);
    EXPECT_EQ(r.utilization, 0x1.4e302697ea84dp-1);
    EXPECT_EQ(r.loss_rate, 0x1.80a9831b6731dp-6);
    EXPECT_EQ(r.tcp_stats.data_packets_sent, 7741u);
    expect_surface(r.telemetry,
                   {6357157356947791519ull, 11164752914586109505ull, 18222009364093966394ull});
  }
}

TEST(GoldenPin, ShortFlowEarlyExit) {
  for (const auto backend : kBothBackends) {
    SCOPED_TRACE(static_cast<int>(backend));
    auto cfg = pinned_short(backend);
    arm_early_exit(cfg);
    const auto r = run_short_flow_experiment(cfg);
    EXPECT_EQ(r.afct_seconds, 0x1.3287ae746de43p-1);
    EXPECT_EQ(r.flows_completed, 141u);
    EXPECT_EQ(r.drop_probability, 0x1.a7ea402920473p-6);
    expect_surface(r.telemetry,
                   {13958804808960764910ull, 236466764510780483ull, 8905742958894323075ull});
  }
}

// --- Bisection answers ----------------------------------------------------
//
// Min-buffer searches on two small configs, with the answers computed before
// bisect_buffer reused drop-free probes and probes left out the queue
// sampler. Reuse must never change an answer.

TEST(Golden, AfctBisectionAnswer) {
  experiment::ShortFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{20e6};
  cfg.load = 0.7;
  cfg.flow_packets = 30;
  cfg.num_leaves = 20;
  cfg.warmup = SimTime::seconds(1);
  cfg.measure = SimTime::seconds(4);
  cfg.seed = 3;
  cfg.buffer_packets = 400;
  const auto baseline = run_short_flow_experiment(cfg);
  EXPECT_EQ(baseline.afct_seconds, 0x1.30f701aaba5bfp-2);
  // The bracket's top probe never drops, so the search reuses it.
  cfg.buffer_packets = 256;
  EXPECT_LT(experiment::detail::run_short_flow_probe(cfg).peak_backlog_packets, 256);
  EXPECT_EQ(experiment::min_buffer_for_afct(cfg, baseline.afct_seconds, 0.125, 2, 256), 59);
}

TEST(Golden, UtilizationBisectionAnswer) {
  experiment::LongFlowExperimentConfig cfg;
  cfg.num_flows = 10;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.warmup = SimTime::seconds(2);
  cfg.measure = SimTime::seconds(4);
  cfg.seed = 4;
  EXPECT_EQ(experiment::min_buffer_for_utilization(cfg, 0.95, 2, 128), 45);
}

TEST(Golden, ShortFlowModelBufferIs162) {
  // The analytic anchor: load 0.8, 62-packet flows, P = 0.025.
  const auto m = core::burst_moments_for_flow(62);
  EXPECT_NEAR(core::buffer_for_drop_probability(0.8, m, 0.025), 162.3, 0.5);
}

}  // namespace
}  // namespace rbs
