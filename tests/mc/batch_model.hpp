// run_indexed's parallel path, rebuilt on the model checker's virtual
// threads around the real claim_loop/take_error (dispatch_protocol.hpp).
// Shared by the protocol models and the mutation-kill tests.
#pragma once

#include <cstddef>
#include <exception>
#include <vector>

#include "experiment/dispatch_protocol.hpp"

namespace sweep_models {

namespace mc = rbs::check::mc;
using rbs::experiment::detail::claim_loop;
using rbs::experiment::detail::SweepClaims;
using rbs::experiment::detail::take_error;

/// run_indexed's parallel path on virtual threads: helpers 1..workers-1,
/// the caller as worker 0, join, then hand back the first point exception.
template <typename Fn>
std::exception_ptr run_batch_model(int workers, std::size_t n, Fn fn) {
  SweepClaims claims;
  std::vector<mc::ThreadHandle> helpers;
  for (int w = 1; w < workers; ++w) {
    helpers.push_back(mc::spawn([&claims, &fn, n, w] { claim_loop(claims, n, w, fn); }));
  }
  claim_loop(claims, n, 0, fn);
  for (const mc::ThreadHandle& h : helpers) mc::join(h);
  return take_error(claims);
}

// Every index of the batch runs exactly once, across all interleavings of
// the workers racing for the cursor. The per-index counters are plain ints:
// only one virtual thread runs between schedule points, so they need no
// synchronization *inside the model* — the invariant they count is the
// protocol's, not theirs.
template <int kWorkers, std::size_t kIndices>
void exactly_once_model() {
  int runs[kIndices] = {};
  const std::exception_ptr error =
      run_batch_model(kWorkers, kIndices, [&](std::size_t i, int) { ++runs[i]; });
  mc::require(error == nullptr, "unexpected captured error");
  for (int r : runs) mc::require(r == 1, "index not executed exactly once");
}

}  // namespace sweep_models
