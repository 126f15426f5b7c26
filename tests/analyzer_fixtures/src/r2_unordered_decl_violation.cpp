// rbs-analyze-fixture-expect: R2 R2
// Unordered containers declared with no justification. Nothing iterates
// them yet; the declaration is where the proof that nothing will belongs.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

struct Registry {
  std::unordered_map<std::int64_t, int> by_id_;  // R2: unjustified
  std::unordered_set<std::int64_t> seen_;        // R2: unjustified

  bool known(std::int64_t id) const { return seen_.count(id) != 0; }
};
