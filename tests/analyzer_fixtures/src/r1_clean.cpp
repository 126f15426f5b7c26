// rbs-analyze-fixture-expect:
// Deterministic twins of everything r1_violation.cpp does wrong.
#include <cstdint>
#include <map>

struct Rng {
  explicit Rng(std::uint64_t seed);
  Rng fork(std::uint64_t stream) const;
  double uniform();
};

struct Config {
  std::uint64_t seed{1};
};

double good_entropy(const Config& config) {
  Rng rng{config.seed};  // seeded from the run configuration
  return rng.fork(0x51EED).uniform();
}

using FlowId = std::int64_t;
std::map<FlowId, int> g_flow_weights;  // value-keyed: stable iteration order

// Two thousands-groups are a count (flow-id offset), not picosecond ticks.
constexpr FlowId kShortFlowIdBase = 1'000'000;
