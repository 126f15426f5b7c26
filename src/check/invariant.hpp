// Hot-path invariant checks, compiled out unless RBS_CHECKED is defined.
//
// RBS_INVARIANT(cond, msg) guards invariants that sit on per-packet or
// per-event paths — queue byte accounting, TCP sequence ordering, scheduler
// clock monotonicity. In a normal build the macro evaluates nothing (the
// condition is only named inside an unevaluated sizeof, so variables used
// solely in checks do not warn); configured with -DRBS_CHECKED=ON every
// violated condition prints the failing condition and aborts.
//
// This macro is the *enforcement* half of the correctness tooling; the
// cold-path, always-compiled half (the InvariantAuditor and per-subsystem
// audit() methods) lives in check/auditor.hpp.
#pragma once

namespace rbs::check {

/// Prints the source location, the stringified condition and the message
/// passed to RBS_INVARIANT to stderr, then aborts.
[[noreturn]] void invariant_failed(const char* file, int line, const char* condition,
                                   const char* message);

}  // namespace rbs::check

#if defined(RBS_CHECKED)
#define RBS_INVARIANT(cond, msg)                                            \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::rbs::check::invariant_failed(__FILE__, __LINE__, #cond, (msg));     \
    }                                                                       \
  } while (false)
#else
// The condition is named but never evaluated, so checked-only variables do
// not trigger -Wunused warnings in unchecked builds.
#define RBS_INVARIANT(cond, msg) \
  do {                           \
    (void)sizeof((cond) ? 1 : 0); \
  } while (false)
#endif
