// rbs-analyze-fixture-expect: R1 R1 R1 R1
// std engines and distributions bypass sim::Rng's seeded, forked streams;
// the distributions also differ across standard libraries.
#include <cstdint>
#include <random>

double bad_engine(std::uint64_t seed) {
  std::mt19937_64 gen(seed);                             // R1: std engine
  std::uniform_real_distribution<double> unit(0.0, 1.0);  // R1: distribution
  return unit(gen);
}

int bad_default_engine(std::uint64_t seed) {
  std::default_random_engine gen(seed);  // R1: std engine
  return static_cast<int>(gen());
}

using Lcg = std::minstd_rand;  // R1: std engine, even behind an alias
