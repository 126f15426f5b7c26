// Simulation time: a strong integer type with picosecond resolution.
//
// All simulation timestamps and durations use SimTime. Integer picoseconds
// give exact, platform-independent event ordering (no floating-point time
// drift) while still representing ~106 days of simulated time in 63 bits —
// far beyond any experiment in this repository.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace rbs::sim {

/// A point in simulated time, or a duration between two such points,
/// in integer picoseconds.
class SimTime {
 public:
  constexpr SimTime() noexcept = default;

  /// Named constructors. Fractional inputs are rounded to the nearest
  /// picosecond.
  static constexpr SimTime picoseconds(std::int64_t ps) noexcept { return SimTime{ps}; }
  static constexpr SimTime nanoseconds(std::int64_t ns) noexcept { return SimTime{ns * 1'000}; }
  static constexpr SimTime microseconds(std::int64_t us) noexcept { return SimTime{us * 1'000'000}; }
  static constexpr SimTime milliseconds(std::int64_t ms) noexcept { return SimTime{ms * 1'000'000'000}; }
  static constexpr SimTime seconds(std::int64_t s) noexcept { return SimTime{s * 1'000'000'000'000}; }
  /// Saturates outside the representable range: to infinity() above it
  /// (and for NaN), to the most negative time below it.
  static SimTime from_seconds(double s) noexcept;

  /// The additive identity; also the time at which every simulation starts.
  static constexpr SimTime zero() noexcept { return SimTime{0}; }
  /// A time later than any reachable simulation time.
  static constexpr SimTime infinity() noexcept {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ps() const noexcept { return ps_; }
  [[nodiscard]] constexpr double to_seconds() const noexcept {
    return static_cast<double>(ps_) * 1e-12;
  }
  [[nodiscard]] constexpr double to_milliseconds() const noexcept {
    return static_cast<double>(ps_) * 1e-9;
  }
  [[nodiscard]] constexpr bool is_infinite() const noexcept {
    return ps_ == std::numeric_limits<std::int64_t>::max();
  }

  constexpr auto operator<=>(const SimTime&) const noexcept = default;

  constexpr SimTime& operator+=(SimTime rhs) noexcept {
    ps_ += rhs.ps_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime rhs) noexcept {
    ps_ -= rhs.ps_;
    return *this;
  }
  friend constexpr SimTime operator+(SimTime a, SimTime b) noexcept { return a += b; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) noexcept { return a -= b; }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) noexcept {
    return SimTime{a.ps_ * k};
  }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) noexcept { return a * k; }
  /// Ratio of two durations (e.g. elapsed / interval).
  friend constexpr double operator/(SimTime a, SimTime b) noexcept {
    return static_cast<double>(a.ps_) / static_cast<double>(b.ps_);
  }

  /// Human-readable rendering with an auto-selected unit, e.g. "12.5ms".
  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t ps) noexcept : ps_{ps} {}
  std::int64_t ps_{0};
};

/// The time a link needs to serialize `bits` at `bits_per_second`.
[[nodiscard]] SimTime transmission_time(std::int64_t bits, double bits_per_second) noexcept;

namespace literals {
constexpr SimTime operator""_ms(unsigned long long v) noexcept {
  return SimTime::milliseconds(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_us(unsigned long long v) noexcept {
  return SimTime::microseconds(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_ns(unsigned long long v) noexcept {
  return SimTime::nanoseconds(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_sec(unsigned long long v) noexcept {
  return SimTime::seconds(static_cast<std::int64_t>(v));
}
}  // namespace literals

}  // namespace rbs::sim
