// rbs-analyze-fixture-expect: R4 R4
// Empty-brace construction value-initializes the Rng: unseeded.
#include <cstdint>

struct Rng {
  Rng();
  explicit Rng(std::uint64_t seed);
  double uniform();
};

double unseeded_braces() {
  Rng rng{};  // R4: value-initialized, no seed
  return rng.uniform();
}

double unseeded_temporary() {
  return Rng{}.uniform();  // R4: value-initialized temporary
}
