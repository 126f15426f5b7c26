// rbs-analyze-fixture-expect:
// The sanctioned parallel-write patterns, none of which may trip R6:
// index-addressed disjoint slots, atomics, RBS_GUARDED_BY fields under a
// lock, and lambda-local state. Spelled with the wrapper types
// (check::mc::Atomic, core::AnnotatedMutex) so R10/R12 stay quiet too —
// this is what sanctioned cross-thread state looks like.
#include <cstddef>
#include <vector>

#define RBS_GUARDED_BY(m)

namespace core {
struct AnnotatedMutex {};
}  // namespace core

namespace rbs::check::mc {
template <typename T>
struct Atomic {
  T v{};
  Atomic& operator+=(T d) {
    v += d;
    return *this;
  }
};
}  // namespace rbs::check::mc

struct SweepRunner {
  template <typename F>
  void run_indexed(std::size_t n, F point);
};

struct Tally {
  core::AnnotatedMutex m;
  rbs::check::mc::Atomic<long> hits{};
  long total RBS_GUARDED_BY(m) = 0;
  const int workers = 4;
};

double compute(std::size_t i);

void sweep_soundly(SweepRunner& runner, std::size_t n, Tally& tally) {
  std::vector<double> out(n);
  runner.run_indexed(n, [&out](std::size_t i) {  // disjoint slots: clean
    out[i] = compute(i);
  });

  auto& hits = tally.hits;
  runner.run_indexed(n, [&hits](std::size_t i) {  // atomic: clean
    hits += static_cast<long>(i != 0);
  });

  runner.run_indexed(n, [&](std::size_t i) {  // lambda-local state: clean
    double local = 0.0;
    local += compute(i);
    (void)local;
  });
}
