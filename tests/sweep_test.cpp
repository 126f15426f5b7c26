// Tests for the parallel sweep runner: deterministic ordering, bitwise
// parallel-vs-serial equivalence of experiment results, exception
// propagation, and thread-count selection.
#include "experiment/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "experiment/long_flow_experiment.hpp"
#include "experiment/short_flow_experiment.hpp"

namespace rbs::experiment {
namespace {

TEST(SweepRunner, MapReturnsResultsInIndexOrder) {
  SweepRunner runner{4};
  const auto out = runner.map<std::size_t>(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

// Every point runs exactly once, so the points sum to the batch size, at
// every worker count (including more workers than the machine has cores).
TEST(SweepRunner, RunsEveryPointExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    SweepRunner runner{threads};
    std::vector<std::atomic<int>> hits(513);
    runner.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(SweepRunner, EmptySweepIsANoOp) {
  SweepRunner runner{2};
  bool touched = false;
  runner.run_indexed(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(SweepRunner, SingleThreadRunsSeriallyInOrder) {
  SweepRunner runner{1};
  EXPECT_EQ(runner.threads(), 1);
  std::vector<std::size_t> order;
  runner.run_indexed(10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(SweepRunner, PropagatesFirstException) {
  SweepRunner runner{2};
  EXPECT_THROW(runner.run_indexed(50,
                                  [&](std::size_t i) {
                                    if (i == 7) throw std::runtime_error{"boom"};
                                  }),
               std::runtime_error);
  // The pool must remain usable after a failed batch.
  const auto out = runner.map<int>(8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out.size(), 8u);
}

TEST(SweepRunner, ReusableAcrossBatches) {
  SweepRunner runner{2};
  for (int batch = 0; batch < 20; ++batch) {
    const auto out =
        runner.map<int>(16, [batch](std::size_t i) { return batch * 100 + static_cast<int>(i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], batch * 100 + static_cast<int>(i));
    }
  }
}

TEST(SweepRunner, CheckedModeVerifiesExactlyOnceExecution) {
  SweepRunner runner{3, /*checked=*/true};
  EXPECT_TRUE(runner.checked());
  std::vector<std::atomic<int>> hits(101);
  runner.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // Checked batches still propagate point exceptions and stay reusable.
  EXPECT_THROW(runner.run_indexed(10,
                                  [](std::size_t i) {
                                    if (i == 3) throw std::runtime_error{"boom"};
                                  }),
               std::runtime_error);
  const auto out = runner.map<int>(8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out.size(), 8u);
}

TEST(SweepRunner, DefaultThreadsHonorsEnvVar) {
  ::setenv("RBS_THREADS", "3", 1);
  EXPECT_EQ(default_sweep_threads(), 3);
  ::unsetenv("RBS_THREADS");
  EXPECT_GE(default_sweep_threads(), 1);
}

// The determinism contract: a sweep point computes bitwise the same result
// whether it runs serially or on a pool, because every point owns its
// Simulation (scheduler + forked RNG) and nothing in src/ has mutable
// global state.
TEST(SweepRunner, ParallelLongFlowSweepIsBitwiseIdenticalToSerial) {
  const std::vector<std::int64_t> buffers{10, 25, 50, 100};
  auto run_point = [&](std::size_t i) {
    LongFlowExperimentConfig cfg;
    cfg.num_flows = 8;
    cfg.buffer_packets = buffers[i];
    cfg.warmup = sim::SimTime::seconds(1);
    cfg.measure = sim::SimTime::seconds(2);
    cfg.seed = 42 + i;
    return run_long_flow_experiment(cfg);
  };

  std::vector<LongFlowExperimentResult> serial;
  for (std::size_t i = 0; i < buffers.size(); ++i) serial.push_back(run_point(i));

  SweepRunner runner{4};
  const auto parallel = runner.map<LongFlowExperimentResult>(buffers.size(), run_point);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Bitwise comparison of every scalar metric — no tolerance.
    EXPECT_EQ(std::memcmp(&serial[i].utilization, &parallel[i].utilization, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&serial[i].loss_rate, &parallel[i].loss_rate, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&serial[i].mean_queue_packets, &parallel[i].mean_queue_packets,
                          sizeof(double)),
              0);
    EXPECT_EQ(serial[i].bottleneck_drops, parallel[i].bottleneck_drops);
    EXPECT_EQ(serial[i].tcp_stats.data_packets_sent, parallel[i].tcp_stats.data_packets_sent);
    EXPECT_EQ(serial[i].tcp_stats.retransmissions, parallel[i].tcp_stats.retransmissions);
    EXPECT_EQ(serial[i].tcp_stats.timeouts, parallel[i].tcp_stats.timeouts);
  }
}

TEST(SweepRunner, ParallelShortFlowSweepIsBitwiseIdenticalToSerial) {
  const std::vector<std::int64_t> buffers{20, 60};
  auto run_point = [&](std::size_t i) {
    ShortFlowExperimentConfig cfg;
    cfg.buffer_packets = buffers[i];
    cfg.num_leaves = 10;
    cfg.warmup = sim::SimTime::seconds(1);
    cfg.measure = sim::SimTime::seconds(3);
    cfg.seed = 7;
    return run_short_flow_experiment(cfg);
  };

  std::vector<ShortFlowExperimentResult> serial;
  for (std::size_t i = 0; i < buffers.size(); ++i) serial.push_back(run_point(i));
  const auto parallel = SweepRunner{2}.map<ShortFlowExperimentResult>(buffers.size(), run_point);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(std::memcmp(&serial[i].afct_seconds, &parallel[i].afct_seconds, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&serial[i].drop_probability, &parallel[i].drop_probability,
                          sizeof(double)),
              0);
    EXPECT_EQ(serial[i].flows_completed, parallel[i].flows_completed);
    EXPECT_EQ(serial[i].queue_tail, parallel[i].queue_tail);
  }
}

}  // namespace
}  // namespace rbs::experiment
