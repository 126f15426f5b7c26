// Unit tests for SimTime arithmetic and conversions.
#include "sim/time.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace rbs::sim {
namespace {

using namespace rbs::sim::literals;

TEST(SimTime, DefaultIsZero) {
  EXPECT_EQ(SimTime{}.ps(), 0);
  EXPECT_EQ(SimTime{}, SimTime::zero());
}

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::seconds(1), SimTime::milliseconds(1000));
  EXPECT_EQ(SimTime::milliseconds(1), SimTime::microseconds(1000));
  EXPECT_EQ(SimTime::microseconds(1), SimTime::nanoseconds(1000));
  EXPECT_EQ(SimTime::nanoseconds(1), SimTime::picoseconds(1000));
}

TEST(SimTime, LiteralsMatchNamedConstructors) {
  EXPECT_EQ(5_ms, SimTime::milliseconds(5));
  EXPECT_EQ(7_us, SimTime::microseconds(7));
  EXPECT_EQ(3_ns, SimTime::nanoseconds(3));
  EXPECT_EQ(2_sec, SimTime::seconds(2));
}

TEST(SimTime, FromSecondsRoundTrips) {
  const auto t = SimTime::from_seconds(0.125);
  EXPECT_DOUBLE_EQ(t.to_seconds(), 0.125);
}

TEST(SimTime, FromSecondsRoundsToNearestPicosecond) {
  EXPECT_EQ(SimTime::from_seconds(1e-12).ps(), 1);
  EXPECT_EQ(SimTime::from_seconds(1.4e-12).ps(), 1);
  EXPECT_EQ(SimTime::from_seconds(1.6e-12).ps(), 2);
}

TEST(SimTime, FromSecondsSaturatesOutsideTheRange) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_TRUE(SimTime::from_seconds(1e300).is_infinite());
  EXPECT_TRUE(SimTime::from_seconds(9.3e6).is_infinite());  // just past ~106 days
  EXPECT_TRUE(SimTime::from_seconds(std::numeric_limits<double>::infinity()).is_infinite());
  EXPECT_TRUE(SimTime::from_seconds(std::numeric_limits<double>::quiet_NaN()).is_infinite());
  EXPECT_EQ(SimTime::from_seconds(-1e300).ps(), kMin);
  EXPECT_EQ(SimTime::from_seconds(9.2e6).ps(), 9'200'000'000'000'000'000);  // still exact
  EXPECT_TRUE(transmission_time(8000, 1e-294).is_infinite());
}

TEST(SimTime, ArithmeticAndComparison) {
  const auto a = 10_ms;
  const auto b = 3_ms;
  EXPECT_EQ(a + b, 13_ms);
  EXPECT_EQ(a - b, 7_ms);
  EXPECT_EQ(2 * b, 6_ms);
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
  EXPECT_DOUBLE_EQ(a / b, 10.0 / 3.0);
}

TEST(SimTime, CompoundAssignment) {
  auto t = 1_ms;
  t += 2_ms;
  EXPECT_EQ(t, 3_ms);
  t -= 1_ms;
  EXPECT_EQ(t, 2_ms);
}

TEST(SimTime, InfinityIsLaterThanEverything) {
  EXPECT_TRUE(SimTime::infinity().is_infinite());
  EXPECT_GT(SimTime::infinity(), SimTime::seconds(1'000'000));
  EXPECT_FALSE(SimTime::seconds(1).is_infinite());
}

TEST(SimTime, TransmissionTime) {
  // 8000 bits at 1 Mb/s = 8 ms.
  EXPECT_EQ(transmission_time(8000, 1e6), 8_ms);
  // 1000-byte packet on OC3 (155 Mb/s) ≈ 51.6 us.
  const auto t = transmission_time(8000, 155e6);
  EXPECT_NEAR(t.to_seconds(), 8000.0 / 155e6, 1e-12);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::seconds(2).to_string(), "2s");
  EXPECT_EQ(SimTime::milliseconds(12).to_string(), "12ms");
  EXPECT_EQ(SimTime::infinity().to_string(), "inf");
}

}  // namespace
}  // namespace rbs::sim
