// rbs-analyze-fixture-expect: R1 R1
// Picosecond-scale literals outside src/sim/time.hpp: tick arithmetic that
// bypasses the SimTime factories and their overflow discipline.
#include <cstdint>

constexpr std::int64_t kOneSecondPs = 1'000'000'000'000;  // R1: raw ticks

std::int64_t deadline(std::int64_t now_ticks) {
  return now_ticks + 5'000'000'000ULL;  // R1: raw ticks, suffix and all
}
