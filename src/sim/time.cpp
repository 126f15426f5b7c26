#include "sim/time.hpp"

#include <cmath>
#include <cstdio>

namespace rbs::sim {

SimTime SimTime::from_seconds(double s) noexcept {
  const double ps = s * 1e12;
  // 2^63 is the first double past the int64 range; llround would wrap.
  if (!(std::fabs(ps) < 0x1p63)) {
    return ps < 0 ? SimTime{std::numeric_limits<std::int64_t>::min()} : infinity();
  }
  return SimTime{static_cast<std::int64_t>(std::llround(ps))};
}

SimTime transmission_time(std::int64_t bits, double bits_per_second) noexcept {
  const double seconds = static_cast<double>(bits) / bits_per_second;
  return SimTime::from_seconds(seconds);
}

std::string SimTime::to_string() const {
  if (is_infinite()) return "inf";
  char buf[64];
  const double abs_ps = std::abs(static_cast<double>(ps_));
  if (abs_ps >= 1e12) {
    std::snprintf(buf, sizeof buf, "%.6gs", to_seconds());
  } else if (abs_ps >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.6gms", static_cast<double>(ps_) * 1e-9);
  } else if (abs_ps >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.6gus", static_cast<double>(ps_) * 1e-6);
  } else {
    std::snprintf(buf, sizeof buf, "%lldps", static_cast<long long>(ps_));
  }
  return buf;
}

}  // namespace rbs::sim
