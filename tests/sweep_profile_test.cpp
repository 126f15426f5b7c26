// SweepRunner observer hooks + SweepProfile accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "experiment/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sweep_profile.hpp"

namespace {

using namespace rbs;

TEST(SweepObserver, HooksFireOncePerPoint) {
  experiment::SweepRunner runner{3};
  std::mutex mu;
  std::vector<int> starts(8, 0), dones(8, 0);
  std::set<int> workers;
  runner.set_observer({[&](std::size_t i, int w) {
                         std::lock_guard lock{mu};
                         ++starts[i];
                         workers.insert(w);
                       },
                       [&](std::size_t i, int w) {
                         std::lock_guard lock{mu};
                         ++dones[i];
                         EXPECT_GE(w, 0);
                       }});
  std::atomic<int> executed{0};
  runner.run_indexed(8, [&](std::size_t) { executed.fetch_add(1); });
  EXPECT_EQ(executed.load(), 8);
  for (int s : starts) EXPECT_EQ(s, 1);
  for (int d : dones) EXPECT_EQ(d, 1);
  for (int w : workers) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, runner.threads());
  }
}

TEST(SweepObserver, SerialRunnerReportsWorkerZero) {
  experiment::SweepRunner runner{1};
  std::vector<int> seen;
  runner.set_observer({{}, [&](std::size_t i, int w) {
                         seen.push_back(w);
                         EXPECT_EQ(i, seen.size() - 1);  // in order when serial
                       }});
  runner.run_indexed(4, [](std::size_t) {});
  EXPECT_EQ(seen, (std::vector<int>{0, 0, 0, 0}));
}

// A batch smaller than the runner runs on min(threads(), n) workers, so an
// 8-thread runner mapping 3 points reports only workers 0, 1 and 2.
TEST(SweepObserver, SmallBatchReportsOnlyItsOwnWorkers) {
  experiment::SweepRunner runner{8};
  std::mutex mu;
  std::set<int> workers;
  runner.set_observer({[&](std::size_t, int w) {
                         std::lock_guard lock{mu};
                         workers.insert(w);
                       },
                       {}});
  runner.run_indexed(3, [](std::size_t) {});
  ASSERT_FALSE(workers.empty());
  for (int w : workers) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 3);
  }
}

TEST(SweepProfile, AccountsPointsAndWorkers) {
  telemetry::SweepProfile prof{4};
  experiment::SweepRunner runner{2};
  runner.set_observer({[&](std::size_t i, int w) { prof.point_start(i, w); },
                       [&](std::size_t i, int w) { prof.point_done(i, w); }});
  runner.run_indexed(4, [](std::size_t) {
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 100000; ++i) sink += i;
  });

  EXPECT_EQ(prof.completed(), 4u);
  EXPECT_GE(prof.workers_seen(), 1);
  EXPECT_LE(prof.workers_seen(), 2);
  EXPECT_GT(prof.span_ms(), 0.0);
  double busy = 0.0;
  for (int w = 0; w < 2; ++w) {
    busy += prof.worker_busy_ms(w);
    EXPECT_GE(prof.worker_utilization(w), 0.0);
  }
  EXPECT_GT(busy, 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(prof.point_wall_ms(i), 0.0);
    EXPECT_GE(prof.point_worker(i), 0);
  }

  telemetry::MetricsRegistry reg;
  prof.export_into(reg);
  const auto snap = reg.snapshot();
  const auto* points = snap.find("sweep.points");
  ASSERT_NE(points, nullptr);
  EXPECT_DOUBLE_EQ(points->value, 4.0);
  const auto* hist = snap.find("sweep.point_wall_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 4u);

  const auto summary = prof.summary();
  EXPECT_NE(summary.find("sweep: 4/4 points"), std::string::npos);
  EXPECT_NE(summary.find("utilization"), std::string::npos);
}

TEST(SweepProfile, UnstartedProfileIsInert) {
  telemetry::SweepProfile prof{3};
  EXPECT_EQ(prof.completed(), 0u);
  EXPECT_EQ(prof.span_ms(), 0.0);
  EXPECT_EQ(prof.workers_seen(), 0);
  EXPECT_EQ(prof.point_wall_ms(0), 0.0);
  EXPECT_EQ(prof.point_worker(0), -1);
  EXPECT_EQ(prof.worker_utilization(0), 0.0);
  telemetry::MetricsRegistry reg;
  prof.export_into(reg);
  const auto snap = reg.snapshot();
  const auto* points = snap.find("sweep.points");
  ASSERT_NE(points, nullptr);
  EXPECT_DOUBLE_EQ(points->value, 0.0);
}

}  // namespace
