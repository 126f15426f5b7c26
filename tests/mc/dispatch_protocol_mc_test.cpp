// Model-checked correctness of the sweep claim protocol.
//
// These models run the REAL protocol — the claim_loop and take_error that
// sweep.cpp calls, compiled here with RBS_MODEL_CHECK so every SweepClaims
// mutex operation is a schedule point — in the shape run_indexed gives it:
// spawn helpers, work as worker 0, join, then read the results. The
// explorer enumerates every interleaving of small configurations (2-3
// workers, 2-3 indices) up to the preemption bound. Asserted invariants, per
// the protocol's contract (dispatch_protocol.hpp):
//
//   * every index claimed exactly once per batch, with 2 and 3 workers;
//   * the join happens-before the result reads (the NonAtomic results make
//     any missing edge a detected race);
//   * a point exception is captured and the batch still drains.
//
// The mutation tests (dispatch_mutation_test.cpp) prove these models would
// actually fail if the protocol were wrong.
#include "batch_model.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <stdexcept>

namespace mc = rbs::check::mc;
using sweep_models::exactly_once_model;
using sweep_models::run_batch_model;

namespace {

mc::Result explore_model(int preemption_bound, void (*model)()) {
  mc::Options opts;
  opts.preemption_bound = preemption_bound;
  return mc::explore(opts, model);
}

TEST(DispatchProtocolMc, TwoWorkersClaimEveryIndexExactlyOnce) {
  const mc::Result r = explore_model(3, &exactly_once_model<2, 2>);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
}

TEST(DispatchProtocolMc, ThreeWorkersClaimEveryIndexExactlyOnce) {
  const mc::Result r = explore_model(2, &exactly_once_model<3, 3>);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
}

// The join happens-before the result reads: points write per-index results
// into race-checked cells and the caller reads them after joining. Any
// interleaving in which a read is not ordered after the write that produced
// it is a detected data race.
TEST(DispatchProtocolMc, JoinHappensBeforeResultReads) {
  const mc::Result r = explore_model(3, [] {
    mc::NonAtomic<int> results[2];
    mc::set_name(&results[0], "results[0]");
    mc::set_name(&results[1], "results[1]");
    const std::exception_ptr error = run_batch_model(
        2, 2, [&](std::size_t i, int) { results[i].store(static_cast<int>(i) + 10); });
    mc::require(error == nullptr, "unexpected captured error");
    mc::require(results[0].load() == 10, "result 0 lost");
    mc::require(results[1].load() == 11, "result 1 lost");
  });
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
}

// A throwing point: the exception is captured, later indices are skipped via
// the cursor fast-forward, and the batch still drains cleanly under every
// interleaving.
TEST(DispatchProtocolMc, PointExceptionIsCapturedAndBatchDrains) {
  const mc::Result r = explore_model(3, [] {
    const std::exception_ptr error = run_batch_model(2, 3, [](std::size_t i, int) {
      if (i == 0) throw std::runtime_error("point failed");
    });
    mc::require(error != nullptr, "point exception was dropped");
  });
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
}

}  // namespace
