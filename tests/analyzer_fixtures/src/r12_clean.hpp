// rbs-analyze-fixture-expect:
// The same class, MC-wrappable: every field is spelled via the check::mc
// wrapper types (which ARE the std types when RBS_MODEL_CHECK is off), so
// the whole class can be driven by the interleaving explorer — this is the
// shape src/experiment/dispatch_protocol.hpp has.
#pragma once

#define RBS_GUARDED_BY(m)

namespace rbs::check::mc {
template <typename T>
struct Atomic {
  T v{};
};
struct Mutex {};
struct CondVar {};
}  // namespace rbs::check::mc

struct WorkQueue {
  rbs::check::mc::Mutex m;
  rbs::check::mc::CondVar ready;
  rbs::check::mc::Atomic<int> head{};
  int tail RBS_GUARDED_BY(m) = 0;
};
