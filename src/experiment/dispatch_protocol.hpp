// The sweep claim protocol: the one loop every worker of a batch runs.
//
// sweep.cpp runs claim_loop on real threads; tests/mc/ runs the same function
// on the model checker's virtual threads (RBS_MODEL_CHECK, where every Mutex
// operation is a schedule point), so the models cannot drift from production.
//
// Each worker takes index `next++` under `mutex` until the batch is
// exhausted. A throwing point keeps the first exception in `first_error` and
// moves the cursor to the end, so the other workers stop claiming. There is
// no completion handshake: run_indexed joins its helper threads, and the join
// is the happens-before edge from every point's writes to the caller's reads.
//
// The RBS_GUARDED_BY annotations are load-bearing: tests/thread_safety/
// asserts that touching either field without the mutex fails to compile
// under -Wthread-safety (scripts/check_thread_safety.py). The
// ProtocolMutation hook proves the models have teeth
// (tests/mc/dispatch_mutation_test.cpp); in production it is constexpr-false
// and the mutated branch is dead code.
#pragma once

#include <cstddef>
#include <exception>
#include <utility>

#include "check/mc/types.hpp"
#include "core/thread_annotations.hpp"

namespace rbs::experiment::detail {

/// Seeded protocol bugs for mutation-kill testing (see file comment).
enum class ProtocolMutation {
  kNone,
  /// Read the cursor and write it back in two separate critical sections:
  /// two workers can read the same value and run the same index twice.
  kTornClaim,
};

#ifdef RBS_MODEL_CHECK
/// Test-only mutation switch (single-threaded test setup writes it before
/// explore(); virtual threads only read it).
inline ProtocolMutation g_protocol_mutation = ProtocolMutation::kNone;
inline bool protocol_mutation_is(ProtocolMutation m) {
  return g_protocol_mutation == m;
}
#else
/// Production: no mutations exist; every hooked branch folds away.
constexpr bool protocol_mutation_is(ProtocolMutation) { return false; }
#endif

/// The state one batch's workers share: the claim cursor and the first
/// point exception. Lives on run_indexed's stack for the batch's lifetime.
struct SweepClaims {
  check::mc::Mutex mutex;
  std::size_t next RBS_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error RBS_GUARDED_BY(mutex);
};

/// Takes the next unclaimed index, or returns n once the batch is exhausted.
inline std::size_t claim(SweepClaims& claims, std::size_t n) {
  if (protocol_mutation_is(ProtocolMutation::kTornClaim)) {
    std::size_t i = 0;
    {
      check::mc::LockGuard lock{claims.mutex};
      i = claims.next;
    }
    check::mc::LockGuard lock{claims.mutex};
    if (i >= n) return n;
    claims.next = i + 1;
    return i;
  }
  check::mc::LockGuard lock{claims.mutex};
  return claims.next < n ? claims.next++ : n;
}

/// Runs fn(i, worker) for every index this worker claims until the batch is
/// exhausted or a point throws. Shared by the caller (worker 0) and the
/// helpers.
template <typename Fn>
void claim_loop(SweepClaims& claims, std::size_t n, int worker, Fn&& fn) {
  for (std::size_t i = claim(claims, n); i < n; i = claim(claims, n)) {
    try {
      fn(i, worker);
    }
    RBS_MC_RETHROW_ABORT
    catch (...) {
      check::mc::LockGuard lock{claims.mutex};
      if (!claims.first_error) claims.first_error = std::current_exception();
      claims.next = n;  // skip the remaining points; the batch still drains
      return;
    }
  }
}

/// Hands back the batch's first point exception (null if none). Called by
/// the caller after joining every helper.
inline std::exception_ptr take_error(SweepClaims& claims) {
  check::mc::LockGuard lock{claims.mutex};
  return std::exchange(claims.first_error, nullptr);
}

}  // namespace rbs::experiment::detail
