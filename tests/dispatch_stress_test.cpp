// Real-thread stress cross-check of the dispatch-protocol invariants the
// model checker proves on virtual threads (tests/mc/): the models explore
// every interleaving of a tiny configuration; this test hammers the real
// SweepRunner with 4 OS threads for 100 iterations so the invariants are
// also witnessed at production scale, under the OS scheduler, and under
// ThreadSanitizer (this binary is part of the TSan CI leg and verify.sh
// step 9 — the concurrency bugs the models would catch structurally, TSan
// catches dynamically here).
#include "experiment/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace {

using rbs::experiment::SweepRunner;

constexpr int kThreads = 4;
constexpr int kIterations = 100;
constexpr std::size_t kBatch = 64;

// Claim-exactly-once under contention: every index of every batch executes
// exactly once. Checked mode makes the runner itself throw on a double or
// missed claim; the per-index counters assert it independently.
TEST(DispatchStress, ClaimExactlyOnceAcrossIterations) {
  SweepRunner runner{kThreads, /*checked=*/true};
  std::vector<std::atomic<std::uint32_t>> executions(kBatch);
  for (auto& e : executions) e.store(0, std::memory_order_relaxed);

  for (int iter = 1; iter <= kIterations; ++iter) {
    runner.run_indexed(kBatch, [&](std::size_t i) {
      executions[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(executions[i].load(std::memory_order_relaxed),
                static_cast<std::uint32_t>(iter))
          << "index " << i << " not claimed exactly once in iteration "
          << iter;
    }
  }
}

// Join before return: no point ever runs after run_indexed returns — every
// helper is joined inside the batch — across 100 construct/run/destroy
// cycles.
TEST(DispatchStress, NoClaimAfterShutdown) {
  for (int iter = 0; iter < kIterations; ++iter) {
    std::atomic<bool> returned{false};
    std::atomic<std::uint32_t> claims{0};
    SweepRunner runner{kThreads, /*checked=*/true};
    runner.run_indexed(kBatch, [&](std::size_t) {
      EXPECT_FALSE(returned.load(std::memory_order_relaxed))
          << "point executed after run_indexed returned";
      claims.fetch_add(1, std::memory_order_relaxed);
    });
    returned.store(true, std::memory_order_relaxed);
    ASSERT_EQ(claims.load(std::memory_order_relaxed), kBatch);
  }
}

}  // namespace
