// rbs-analyze-fixture-expect:
// The sanctioned ways to touch an unordered container: a justified
// declaration, key-lookup only, the collect-then-sort pattern, and a
// justified allow() on a loop.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

struct Workload {
  // rbs-analyze: allow(R2) -- lookups only; iteration goes through sorted keys
  std::unordered_map<std::int64_t, int> active_;

  int lookup(std::int64_t id) const { return active_.at(id); }

  void dump_sorted() {
    std::vector<std::int64_t> ids;
    ids.reserve(active_.size());
    for (const auto& [id, state] : active_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const auto id : ids) std::printf("%lld\n", static_cast<long long>(id));
  }

  std::int64_t sum() {
    std::int64_t total = 0;
    // rbs-analyze: allow(R2) -- summation is order-independent
    for (const auto& [id, state] : active_) total += state;
    return total;
  }
};
