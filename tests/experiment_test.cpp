// Tests for the experiment runners: determinism, measurement plumbing, and
// the buffer-search helpers. Scaled-down links keep each run fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "experiment/dumbbell_run.hpp"
#include "experiment/long_flow_experiment.hpp"
#include "experiment/mixed_flow_experiment.hpp"
#include "experiment/short_flow_experiment.hpp"

namespace rbs::experiment {
namespace {

using sim::SimTime;

LongFlowExperimentConfig fast_long(int flows, std::int64_t buffer) {
  LongFlowExperimentConfig cfg;
  cfg.num_flows = flows;
  cfg.buffer_packets = buffer;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.warmup = SimTime::seconds(5);
  cfg.measure = SimTime::seconds(10);
  return cfg;
}

TEST(LongFlowExperiment, DeterministicForSameSeed) {
  const auto a = run_long_flow_experiment(fast_long(10, 30));
  const auto b = run_long_flow_experiment(fast_long(10, 30));
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_DOUBLE_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.bottleneck_drops, b.bottleneck_drops);
}

TEST(LongFlowExperiment, SeedChangesOutcome) {
  auto cfg = fast_long(10, 30);
  const auto a = run_long_flow_experiment(cfg);
  cfg.seed = 99;
  const auto b = run_long_flow_experiment(cfg);
  EXPECT_NE(a.bottleneck_drops, b.bottleneck_drops);
}

TEST(LongFlowExperiment, ReportsTopologyDerivedQuantities) {
  const auto r = run_long_flow_experiment(fast_long(10, 30));
  // Default delays: access 5..53 ms, bottleneck 10 ms, receiver 1 ms.
  EXPECT_GT(r.mean_rtt_sec, 0.032);
  EXPECT_LT(r.mean_rtt_sec, 0.128);
  EXPECT_NEAR(r.bdp_packets, r.mean_rtt_sec * 10e6 / 8000.0, 1.0);
}

TEST(LongFlowExperiment, AdequateBufferGivesHighUtilization) {
  const auto r = run_long_flow_experiment(fast_long(10, 60));
  EXPECT_GT(r.utilization, 0.95);
}

TEST(LongFlowExperiment, TinyBufferLosesThroughputAndDropsPackets) {
  const auto r = run_long_flow_experiment(fast_long(2, 2));
  EXPECT_LT(r.utilization, 0.97);
  EXPECT_GT(r.bottleneck_drops, 0u);
  EXPECT_GT(r.loss_rate, 0.0);
}

TEST(LongFlowExperiment, CwndSamplingFillsSeries) {
  auto cfg = fast_long(5, 40);
  cfg.cwnd_sample_interval = SimTime::milliseconds(100);
  cfg.sample_per_flow_cwnd = true;
  const auto r = run_long_flow_experiment(cfg);
  // 10 s measurement at 100 ms -> ~100 samples.
  EXPECT_NEAR(static_cast<double>(r.total_cwnd.size()), 100.0, 3.0);
  ASSERT_EQ(r.per_flow_cwnd.size(), 5u);
  for (const auto& series : r.per_flow_cwnd) {
    EXPECT_EQ(series.size(), r.total_cwnd.size());
  }
  // Aggregate equals sum of per-flow at each sample.
  for (std::size_t i = 0; i < r.total_cwnd.size(); ++i) {
    double sum = 0;
    for (const auto& series : r.per_flow_cwnd) sum += series[i];
    EXPECT_NEAR(r.total_cwnd.points()[i].value, sum, 1e-9);
  }
}

TEST(LongFlowExperiment, NoSamplingWhenNotRequested) {
  const auto r = run_long_flow_experiment(fast_long(3, 40));
  EXPECT_TRUE(r.total_cwnd.empty());
  EXPECT_TRUE(r.per_flow_cwnd.empty());
}

TEST(MinBufferSearch, FindsThresholdConsistentWithDirectRuns) {
  auto cfg = fast_long(10, 0);
  const auto min_b = min_buffer_for_utilization(cfg, 0.95, 2, 200);
  EXPECT_GT(min_b, 2);
  EXPECT_LT(min_b, 200);
  cfg.buffer_packets = min_b;
  EXPECT_GE(run_long_flow_experiment(cfg).utilization, 0.95);
}

TEST(MinBufferSearch, ReturnsHiWhenTargetUnreachable) {
  auto cfg = fast_long(2, 0);
  cfg.measure = SimTime::seconds(5);
  // 2 flows cannot hit 99.99% with a 3-packet cap in this range.
  EXPECT_EQ(min_buffer_for_utilization(cfg, 0.9999, 2, 3), 3);
}

ShortFlowExperimentConfig fast_short() {
  ShortFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.load = 0.7;
  cfg.flow_packets = 14;  // bursts 2,4,8
  cfg.num_leaves = 20;
  cfg.warmup = SimTime::seconds(3);
  cfg.measure = SimTime::seconds(15);
  cfg.buffer_packets = 300;
  return cfg;
}

TEST(ShortFlowExperiment, LoadMatchesTarget) {
  const auto r = run_short_flow_experiment(fast_short());
  EXPECT_NEAR(r.utilization, 0.7, 0.08);
  EXPECT_GT(r.flows_completed, 100u);
  EXPECT_GT(r.afct_seconds, 0.0);
}

TEST(ShortFlowExperiment, QueueTailIsMonotoneSurvival) {
  const auto r = run_short_flow_experiment(fast_short());
  ASSERT_GT(r.queue_tail.size(), 2u);
  EXPECT_NEAR(r.queue_tail[0], 1.0, 1e-9);  // P(Q >= 0) = 1
  for (std::size_t i = 1; i < r.queue_tail.size(); ++i) {
    EXPECT_LE(r.queue_tail[i], r.queue_tail[i - 1] + 1e-12);
  }
  EXPECT_NEAR(r.queue_tail.back(), 0.0, 1e-9);
}

TEST(ShortFlowExperiment, BigBufferMeansNoDrops) {
  const auto r = run_short_flow_experiment(fast_short());
  EXPECT_DOUBLE_EQ(r.drop_probability, 0.0);
}

TEST(ShortFlowExperiment, TinyBufferDropsAndSlowsFlows) {
  auto cfg = fast_short();
  const auto baseline = run_short_flow_experiment(cfg);
  cfg.buffer_packets = 5;
  const auto squeezed = run_short_flow_experiment(cfg);
  EXPECT_GT(squeezed.drop_probability, 0.0);
  EXPECT_GT(squeezed.afct_seconds, baseline.afct_seconds);
}

TEST(MinBufferForAfct, RespectsPenaltyBudget) {
  auto cfg = fast_short();
  const auto baseline = run_short_flow_experiment(cfg);
  const auto min_b = min_buffer_for_afct(cfg, baseline.afct_seconds, 0.2, 2, 300);
  EXPECT_LT(min_b, 300);
  cfg.buffer_packets = min_b;
  const auto at_min = run_short_flow_experiment(cfg);
  EXPECT_LE(at_min.afct_seconds, baseline.afct_seconds * 1.25);  // some noise slack
}

TEST(MinBufferForAfct, ProbeWithNoCompletedFlowFails) {
  // 100000-packet flows cannot finish in a 1 s window: no probe has an AFCT,
  // and the empty mean of 0 must not pass as one.
  ShortFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.flow_packets = 100000;
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::seconds(1);
  EXPECT_EQ(min_buffer_for_afct(cfg, 0.5, 0.1, 2, 500), 500);
}

MixedFlowExperimentConfig fast_mixed() {
  MixedFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.num_long_flows = 5;
  cfg.short_flow_load = 0.2;
  cfg.short_flow_packets = 14;
  cfg.num_short_leaves = 10;
  cfg.buffer_packets = 40;
  cfg.warmup = SimTime::seconds(4);
  cfg.measure = SimTime::seconds(12);
  return cfg;
}

TEST(MixedFlowExperiment, LongFlowsFillWhatShortFlowsLeave) {
  const auto r = run_mixed_flow_experiment(fast_mixed());
  EXPECT_GT(r.utilization, 0.9);
  EXPECT_GT(r.short_flows_completed, 30u);
  // Long flows carry most of the remaining ~80%.
  EXPECT_GT(r.long_flow_throughput_bps, 0.5 * 10e6);
}

TEST(MixedFlowExperiment, UdpShareIsCarried) {
  auto cfg = fast_mixed();
  cfg.udp_load = 0.2;
  const auto r = run_mixed_flow_experiment(cfg);
  EXPECT_GT(r.utilization, 0.9);
}

TEST(MixedFlowExperiment, ParetoSizingRuns) {
  auto cfg = fast_mixed();
  cfg.short_sizing = ShortFlowSizing::kPareto;
  cfg.pareto_max_packets = 200;
  const auto r = run_mixed_flow_experiment(cfg);
  EXPECT_GT(r.short_flows_completed, 10u);
  EXPECT_GT(r.utilization, 0.85);
}

TEST(MixedFlowExperiment, Deterministic) {
  const auto a = run_mixed_flow_experiment(fast_mixed());
  const auto b = run_mixed_flow_experiment(fast_mixed());
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.short_flows_completed, b.short_flows_completed);
}

TEST(BisectBuffer, FindsSmallestPassingBuffer) {
  EXPECT_EQ(bisect_buffer(1, 100, [](std::int64_t b) { return b >= 37; }), 37);
  EXPECT_EQ(bisect_buffer(5, 5, [](std::int64_t) { return true; }), 5);
  EXPECT_EQ(bisect_buffer(1, 100, [](std::int64_t) { return false; }), 100);
}

// A scripted world whose runs at buffers of 20 and up never fill the queue
// (peak backlog 19), so each of them reports that it repeats from 20 up.
// Reuse must follow plain bisection's path and answer with fewer runs,
// monotone predicate or not.
TEST(BisectBuffer, DropFreeProbesAnswerLaterProbesWithoutARun) {
  const std::function<bool(std::int64_t)> predicates[] = {
      [](std::int64_t b) { return b >= 20; },
      [](std::int64_t b) { return b >= 20 || b % 4 == 0; },
  };
  for (const auto& pass : predicates) {
    std::vector<std::int64_t> plain_path;
    const auto plain = bisect_buffer(1, 1000, [&](std::int64_t b) {
      plain_path.push_back(b);
      return pass(b);
    });
    std::vector<std::int64_t> runs;
    const auto reused = bisect_buffer(1, 1000, [&](std::int64_t b) -> BufferProbe {
      runs.push_back(b);
      if (b >= 20) return {pass(b), 20};
      return pass(b);
    });
    EXPECT_EQ(reused, plain);
    EXPECT_LT(runs.size(), plain_path.size());
    // Every run is one plain bisection made, in the same order.
    auto next = plain_path.begin();
    for (const std::int64_t b : runs) {
      next = std::find(next, plain_path.end(), b);
      ASSERT_NE(next, plain_path.end()) << "run at " << b << " is off the plain path";
    }
  }
  // A bare verdict is never reused.
  int calls = 0;
  EXPECT_EQ(bisect_buffer(1, 100, [&](std::int64_t b) {
              ++calls;
              return b >= 37;
            }),
            37);
  EXPECT_EQ(calls, 8);
}

// The reuse rule on real runs: a short-flow run that never dropped repeats
// bit for bit at any buffer above its peak backlog, and at the peak itself
// the arrival that found the queue full is dropped. Also with faults: a
// link-down flush and a loss burst act upstream of the drop decision.
TEST(DropFreeReuse, RunRepeatsBitwiseAboveItsPeakBacklog) {
  auto faulted = fast_short();
  faulted.faults.link_down("bottleneck_fwd", SimTime::seconds(6), SimTime::milliseconds(200));
  faulted.faults.loss_burst("bottleneck_fwd", SimTime::seconds(9), SimTime::milliseconds(500),
                            0.2);
  for (auto cfg : {fast_short(), faulted}) {
    SCOPED_TRACE(cfg.faults.empty() ? "no faults" : "faults");
    const std::int64_t big = cfg.buffer_packets;
    const auto base = run_short_flow_experiment(cfg);
    const std::int64_t peak = base.peak_backlog_packets;
    ASSERT_GE(peak, 1);
    ASSERT_LT(peak, big) << "the base run must be drop-free";
    for (const std::int64_t buffer : {peak + 1, 2 * big}) {
      SCOPED_TRACE(buffer);
      cfg.buffer_packets = buffer;
      const auto again = run_short_flow_experiment(cfg);
      EXPECT_EQ(again.afct_seconds, base.afct_seconds);
      EXPECT_EQ(again.flows_completed, base.flows_completed);
      EXPECT_EQ(again.utilization, base.utilization);
      EXPECT_EQ(again.drop_probability, base.drop_probability);
      EXPECT_EQ(again.fault_drops, base.fault_drops);
      EXPECT_EQ(again.peak_backlog_packets, peak);
    }
    cfg.buffer_packets = peak;
    EXPECT_EQ(run_short_flow_experiment(cfg).peak_backlog_packets, peak)
        << "an arrival must find the queue full, and be dropped";
  }
}

// A probe leaves out only the queue sampler; every verdict input is bitwise
// the run's own.
TEST(DropFreeReuse, ProbeWithoutQueueSamplerMatchesTheFullRun) {
  auto short_cfg = fast_short();
  short_cfg.buffer_packets = 20;  // drops, so the sampler-free run is no trivial case
  short_cfg.checked = true;
  const auto full = run_short_flow_experiment(short_cfg);
  const auto probe = detail::run_short_flow_probe(short_cfg);
  EXPECT_GT(full.drop_probability, 0.0);
  EXPECT_EQ(probe.afct_seconds, full.afct_seconds);
  EXPECT_EQ(probe.flows_completed, full.flows_completed);
  EXPECT_EQ(probe.utilization, full.utilization);
  EXPECT_EQ(probe.drop_probability, full.drop_probability);
  EXPECT_EQ(probe.peak_backlog_packets, full.peak_backlog_packets);
  EXPECT_TRUE(probe.queue_tail.empty());

  const auto long_cfg = fast_long(10, 30);
  const auto long_full = run_long_flow_experiment(long_cfg);
  const auto long_probe = detail::run_long_flow_probe(long_cfg);
  EXPECT_EQ(long_probe.utilization, long_full.utilization);
  EXPECT_EQ(long_probe.loss_rate, long_full.loss_rate);
  EXPECT_EQ(long_probe.bottleneck_drops, long_full.bottleneck_drops);
  EXPECT_EQ(long_probe.tcp_stats.data_packets_sent, long_full.tcp_stats.data_packets_sent);
  EXPECT_EQ(long_probe.peak_backlog_packets, long_full.peak_backlog_packets);
}

TEST(DropFreeReuse, PeakBacklogIsOnlyReportedForDropTail) {
  auto cfg = fast_long(10, 30);
  cfg.discipline = net::QueueDiscipline::kRed;
  EXPECT_EQ(run_long_flow_experiment(cfg).peak_backlog_packets, -1);
  EXPECT_EQ(drop_free_probe(true, 30, -1).reproduced_from, BufferProbe::kOwnBufferOnly);
  EXPECT_EQ(drop_free_probe(true, 30, 30).reproduced_from, BufferProbe::kOwnBufferOnly);
  EXPECT_EQ(drop_free_probe(false, 30, 12).reproduced_from, 13);
}

TEST(TcpSourceStats, SumAndDeltaAreFieldwise) {
  tcp::TcpSourceStats a{10, 2, 1, 1, 8, 3, 1};
  const tcp::TcpSourceStats b{4, 1, 1, 0, 2, 1, 0};
  a += b;
  EXPECT_EQ(a.data_packets_sent, 14u);
  EXPECT_EQ(a.dup_acks_received, 4u);
  const auto d = a - b;
  EXPECT_EQ(d.data_packets_sent, 10u);
  EXPECT_EQ(d.retransmissions, 2u);
  EXPECT_EQ(d.fast_retransmits, 1u);
  EXPECT_EQ(d.timeouts, 1u);
  EXPECT_EQ(d.acks_received, 8u);
  EXPECT_EQ(d.dup_acks_received, 3u);
  EXPECT_EQ(d.ecn_reductions, 1u);
}

// --- Hostile inputs: a diagnostic, never a hang, NaN or crash ---------------

TEST(HostileInputs, RunLevelConditionsThrow) {
  auto no_leaves = fast_short();
  no_leaves.num_leaves = 0;
  EXPECT_THROW((void)run_short_flow_experiment(no_leaves), std::invalid_argument);
  auto negative_warmup = fast_long(2, 10);
  negative_warmup.warmup = SimTime::seconds(-1);
  EXPECT_THROW((void)run_long_flow_experiment(negative_warmup), std::invalid_argument);
  auto negative_window = fast_short();
  negative_window.measure = SimTime::seconds(-1);
  EXPECT_THROW((void)run_short_flow_experiment(negative_window), std::invalid_argument);
}

TEST(HostileInputs, ZeroLengthRunBuildsTheWorldOnly) {
  // A zero-horizon run is a set-up timing sample, not an error.
  auto cfg = fast_long(4, 10);
  cfg.warmup = cfg.measure = SimTime::zero();
  const auto r = run_long_flow_experiment(cfg);
  EXPECT_EQ(r.utilization, 0.0);
  EXPECT_GT(r.mean_rtt_sec, 0.0);
}

// A rate that is zero or not a number makes serialization times
// meaningless, and a sample interval of zero or less would reschedule the
// samplers at one instant forever; each is rejected before the run starts.
TEST(HostileInputs, RateAndSampleIntervalMustBePositive) {
  auto zero_rate = fast_long(2, 10);
  zero_rate.bottleneck_rate = core::BitsPerSec::zero();
  EXPECT_THROW((void)run_long_flow_experiment(zero_rate), std::invalid_argument);
  auto nan_rate = fast_long(2, 10);
  nan_rate.bottleneck_rate = core::BitsPerSec{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)run_long_flow_experiment(nan_rate), std::invalid_argument);
  auto zero_interval = fast_long(2, 10);
  zero_interval.telemetry.sample_interval = SimTime::zero();
  EXPECT_THROW((void)run_long_flow_experiment(zero_interval), std::invalid_argument);
  auto negative_interval = fast_short();
  negative_interval.telemetry.sample_interval = SimTime::milliseconds(-100);
  EXPECT_THROW((void)run_short_flow_experiment(negative_interval), std::invalid_argument);
}

// SimTime::from_seconds saturates past ~106 days instead of wrapping; a
// run must reject the saturated times and a link too slow for one packet.
TEST(HostileInputs, TimesPastTheSimulatedRangeThrow) {
  auto crawling_link = fast_long(2, 10);
  crawling_link.bottleneck_rate = core::BitsPerSec{1e-294};
  EXPECT_THROW((void)run_long_flow_experiment(crawling_link), std::invalid_argument);
  auto endless_window = fast_long(2, 10);
  endless_window.measure = SimTime::from_seconds(1e300);
  EXPECT_THROW((void)run_long_flow_experiment(endless_window), std::invalid_argument);
  auto endless_interval = fast_long(2, 10);
  endless_interval.telemetry.sample_interval = SimTime::from_seconds(1e300);
  EXPECT_THROW((void)run_long_flow_experiment(endless_interval), std::invalid_argument);
  auto overflowing_sum = fast_short();
  overflowing_sum.warmup = SimTime::from_seconds(5e6);
  overflowing_sum.measure = SimTime::from_seconds(5e6);
  EXPECT_THROW((void)run_short_flow_experiment(overflowing_sum), std::invalid_argument);
}

TEST(HostileInputs, BisectionBracketThrows) {
  const auto ok = [](std::int64_t) { return true; };
  EXPECT_THROW((void)bisect_buffer(0, 10, ok), std::invalid_argument);
  EXPECT_THROW((void)bisect_buffer(10, 9, ok), std::invalid_argument);
  EXPECT_THROW((void)min_buffer_for_afct(fast_short(), 0.0, 0.1, 1, 10),
               std::invalid_argument);
}

TEST(HostileInputs, LongFlowNeedsAFlow) {
  EXPECT_THROW((void)run_long_flow_experiment(fast_long(0, 10)), std::invalid_argument);
}

TEST(HostileInputs, ShortFlowNeedsPositiveLoad) {
  auto cfg = fast_short();
  cfg.load = 0.0;
  EXPECT_THROW((void)run_short_flow_experiment(cfg), std::invalid_argument);
}

// An infinite load or a flow shorter than one packet would generate
// arrivals forever; each is rejected before the run starts.
TEST(HostileInputs, ShortFlowNeedsFiniteLoadAndAPacketPerFlow) {
  auto infinite_load = fast_short();
  infinite_load.load = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)run_short_flow_experiment(infinite_load), std::invalid_argument);
  auto empty_flows = fast_short();
  empty_flows.flow_packets = 0;
  EXPECT_THROW((void)run_short_flow_experiment(empty_flows), std::invalid_argument);
}

TEST(HostileInputs, MixedFlowNeedsFiniteLoadAndAPacketPerFlow) {
  auto infinite_load = fast_mixed();
  infinite_load.short_flow_load = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)run_mixed_flow_experiment(infinite_load), std::invalid_argument);
  auto empty_flows = fast_mixed();
  empty_flows.short_flow_packets = 0;
  EXPECT_THROW((void)run_mixed_flow_experiment(empty_flows), std::invalid_argument);
}

TEST(HostileInputs, MixedFlowConditionsThrow) {
  auto negative_long = fast_mixed();
  negative_long.num_long_flows = -3;
  EXPECT_THROW((void)run_mixed_flow_experiment(negative_long), std::invalid_argument);
  auto no_short_leaves = fast_mixed();
  no_short_leaves.num_short_leaves = 0;
  EXPECT_THROW((void)run_mixed_flow_experiment(no_short_leaves), std::invalid_argument);
  auto no_short_load = fast_mixed();
  no_short_load.short_flow_load = 0.0;
  EXPECT_THROW((void)run_mixed_flow_experiment(no_short_load), std::invalid_argument);
  // Long-flow throughput divides by the window.
  auto empty_window = fast_mixed();
  empty_window.measure = SimTime::zero();
  EXPECT_THROW((void)run_mixed_flow_experiment(empty_window), std::invalid_argument);
}

TEST(HostileInputs, MixedFlowNeedsAFiniteNonNegativeUdpLoad) {
  // An infinite UDP rate used to leave no gap between datagrams, and the
  // run never left its first instant.
  for (const double load : {std::numeric_limits<double>::infinity(), -0.1,
                            std::numeric_limits<double>::quiet_NaN()}) {
    auto cfg = fast_mixed();
    cfg.udp_load = load;
    EXPECT_THROW((void)run_mixed_flow_experiment(cfg), std::invalid_argument) << load;
  }
}

}  // namespace
}  // namespace rbs::experiment
