// rbs-analyze-fixture-expect:
// The one file allowed to spell picosecond ticks: the SimTime factories.
#pragma once
#include <cstdint>

struct SimTime {
  static constexpr std::int64_t kPsPerSecond = 1'000'000'000'000;
  std::int64_t ps;
};
