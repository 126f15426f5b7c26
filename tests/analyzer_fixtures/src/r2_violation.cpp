// rbs-analyze-fixture-expect: R2 R2
// Iterating an unordered container where the body's side effects make the
// (hash-layout-dependent) visit order observable.
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

struct Sim {
  void after(long delay_ps, void (*fn)());
};

struct Workload {
  // The declarations are justified; the loops below break the promise and
  // are still flagged.
  std::unordered_map<std::int64_t, int> active_;  // rbs-analyze: allow(R2) -- lookup-only
  std::unordered_set<std::int64_t> pending_;  // rbs-analyze: allow(R2) -- lookup-only
  Sim sim_;

  void kick() {
    for (const auto& [id, state] : active_) {  // R2: schedules in hash order
      sim_.after(id, nullptr);
    }
  }

  void dump() {
    for (const auto id : pending_) {  // R2: prints in hash order
      std::printf("%lld\n", static_cast<long long>(id));
    }
  }
};
