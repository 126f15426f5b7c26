// rbs-analyze-fixture-expect: R6 R6
// A class that owns a mutex (or worker threads) is cross-thread by
// construction, so every mutable member needs a concurrency classification
// the analyses can check: an Atomic wrapper, RBS_GUARDED_BY, or const.
// Unclassified members are exactly the state -Wthread-safety cannot see. (Wrapper spellings throughout, so the
// two findings here are R6's alone — not R10/R12 noise.)
#pragma once

#include <cstddef>

namespace rbs::check::mc {
template <typename T>
struct Atomic {
  T v{};
};
struct Mutex {};
}  // namespace rbs::check::mc

struct ProgressBoard {
  rbs::check::mc::Mutex m;
  rbs::check::mc::Atomic<std::size_t> started;  // classified: fine
  std::size_t completed = 0;                    // R6: mutable, unclassified
  double last_wall = 0.0;                       // R6: mutable, unclassified
  const std::size_t capacity = 64;              // immutable: fine
};
