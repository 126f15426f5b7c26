// rbs-analyze-fixture-expect:
// RNG discipline done right: run-seed construction and named-stream forks.
#include <cstdint>

struct Rng {
  Rng();  // a constructor declaration, not an unseeded construction
  explicit Rng(std::uint64_t seed);
  Rng fork(std::uint64_t stream) const;
  double uniform();
};

struct Config {
  std::uint64_t seed{1};
};

constexpr std::uint64_t kArrivalStream = 0xA881;

double good(const Config& config) {
  Rng root{config.seed};            // seeded from configuration, not a literal
  Rng arrivals = root.fork(kArrivalStream);  // named stream
  return arrivals.uniform();
}
