// Mutation-kill tests: prove the claim protocol models have teeth.
//
// kTornClaim (ProtocolMutation in dispatch_protocol.hpp) splits the claim's
// read and write of the cursor into two critical sections, and the
// exactly-once model that passes on the unmutated protocol must report a
// violation with a non-empty, replayable schedule trace. A model variant
// that reads the results before joining the helper shows the same for the
// join-happens-before model. If either survives, the models are too weak
// and this file fails the build's model-check leg.
#include "batch_model.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

namespace mc = rbs::check::mc;
using rbs::experiment::detail::claim_loop;
using rbs::experiment::detail::g_protocol_mutation;
using rbs::experiment::detail::ProtocolMutation;
using rbs::experiment::detail::SweepClaims;
using sweep_models::exactly_once_model;

namespace {

/// Arms one mutation for the scope of a test (single-threaded test code
/// writes it strictly before/after explore(); virtual threads only read).
class ScopedMutation {
 public:
  explicit ScopedMutation(ProtocolMutation m) { g_protocol_mutation = m; }
  ~ScopedMutation() { g_protocol_mutation = ProtocolMutation::kNone; }
};

mc::Result explore_model(void (*model)()) {
  mc::Options opts;
  opts.preemption_bound = 3;
  return mc::explore(opts, model);
}

void expect_killed(const mc::Result& r, const char* mutation) {
  ASSERT_TRUE(r.violation) << "mutation " << mutation << " survived the model:\n"
                           << r.summary();
  EXPECT_FALSE(r.trace.empty()) << "violation carries no schedule trace";
  EXPECT_FALSE(r.message.empty());
}

/// The result-reads model with the join moved after the reads: the caller
/// reads a cell the helper may still be writing.
void reads_before_join_model() {
  SweepClaims claims;
  mc::NonAtomic<int> results[2];
  mc::set_name(&results[0], "results[0]");
  mc::set_name(&results[1], "results[1]");
  const auto fn = [&](std::size_t i, int) { results[i].store(static_cast<int>(i) + 10); };
  const mc::ThreadHandle helper = mc::spawn([&] { claim_loop(claims, 2, 1, fn); });
  claim_loop(claims, 2, 0, fn);
  (void)results[0].load();
  (void)results[1].load();
  mc::join(helper);
}

TEST(DispatchMutation, TornClaimRunsAnIndexTwice) {
  ScopedMutation arm{ProtocolMutation::kTornClaim};
  expect_killed(explore_model(&exactly_once_model<2, 2>), "kTornClaim");
}

TEST(DispatchMutation, ReadingResultsBeforeTheJoinIsARace) {
  const mc::Result r = explore_model(&reads_before_join_model);
  expect_killed(r, "reads before join");
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
}

// The killed mutation's trace must replay: feeding the reported schedule
// back reproduces the same violation in exactly one execution, which is
// what makes a model-checker report debuggable rather than anecdotal.
TEST(DispatchMutation, KilledMutationTraceReplaysDeterministically) {
  ScopedMutation arm{ProtocolMutation::kTornClaim};
  const mc::Result found = explore_model(&exactly_once_model<2, 2>);
  ASSERT_TRUE(found.violation) << found.summary();

  mc::Options replay;
  for (const mc::Step& s : found.trace) {
    if (s.label.find("[effect]") == std::string::npos) replay.replay.push_back(s.thread);
  }
  const mc::Result again = mc::explore(replay, &exactly_once_model<2, 2>);
  ASSERT_TRUE(again.violation) << again.summary();
  EXPECT_EQ(again.executions, 1u);
  EXPECT_EQ(again.message, found.message);
}

// Sanity leg: with no mutation armed, the models pass — the kill comes from
// the mutation, not from an over-strict model.
TEST(DispatchMutation, UnmutatedModelsAllPass) {
  ASSERT_EQ(g_protocol_mutation, ProtocolMutation::kNone);
  EXPECT_FALSE(explore_model(&exactly_once_model<2, 2>).violation);
  EXPECT_FALSE(explore_model(&exactly_once_model<3, 3>).violation);
}

}  // namespace
