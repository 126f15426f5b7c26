// Positive thread-safety fixture: every guarded SweepClaims access below
// holds the mutex through core::LockGuard / core::CvLock, so this TU must
// compile cleanly under -Wthread-safety -Werror=thread-safety (see
// scripts/check_thread_safety.py).
#include <cstddef>

#include "core/thread_annotations.hpp"
#include "experiment/dispatch_protocol.hpp"

namespace {

std::size_t guarded_reads(rbs::experiment::detail::SweepClaims& claims) {
  rbs::core::LockGuard lock{claims.mutex};
  return claims.next + static_cast<std::size_t>(static_cast<bool>(claims.first_error));
}

void guarded_writes(rbs::experiment::detail::SweepClaims& claims) {
  rbs::core::CvLock lock{claims.mutex};
  ++claims.next;
  claims.first_error = nullptr;
}

}  // namespace

int run_fixture(rbs::experiment::detail::SweepClaims& claims) {
  guarded_writes(claims);
  return static_cast<int>(guarded_reads(claims));
}
