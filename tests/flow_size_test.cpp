// Unit tests for flow-size distributions.
#include "traffic/flow_size.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>

#include "sim/random.hpp"

namespace rbs::traffic {
namespace {

TEST(FixedFlowSize, AlwaysReturnsConfiguredLength) {
  sim::Rng rng{1};
  FixedFlowSize d{62};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 62);
  EXPECT_DOUBLE_EQ(d.mean(), 62.0);
}

// A length below one packet (or a NaN shape) would never finish a flow, so
// the constructors reject it in every build type.
TEST(FixedFlowSize, RejectsLengthBelowOnePacket) {
  EXPECT_THROW(FixedFlowSize{0}, std::invalid_argument);
  EXPECT_THROW(FixedFlowSize{-5}, std::invalid_argument);
}

TEST(UniformFlowSize, RejectsEmptyOrSubPacketRange) {
  EXPECT_THROW((UniformFlowSize{0, 10}), std::invalid_argument);
  EXPECT_THROW((UniformFlowSize{10, 9}), std::invalid_argument);
}

TEST(ParetoFlowSize, RejectsBadShapeOrBounds) {
  EXPECT_THROW((ParetoFlowSize{0.0, 2, 500}), std::invalid_argument);
  EXPECT_THROW((ParetoFlowSize{std::nan(""), 2, 500}), std::invalid_argument);
  EXPECT_THROW((ParetoFlowSize{1.2, 0, 500}), std::invalid_argument);
  EXPECT_THROW((ParetoFlowSize{1.2, 10, 9}), std::invalid_argument);
}

TEST(UniformFlowSize, SamplesWithinBoundsWithCorrectMean) {
  sim::Rng rng{2};
  UniformFlowSize d{10, 30};
  double sum = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    const auto v = d.sample(rng);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 30);
    sum += static_cast<double>(v);
  }
  EXPECT_DOUBLE_EQ(d.mean(), 20.0);
  EXPECT_NEAR(sum / kN, 20.0, 0.2);
}

TEST(ParetoFlowSize, RespectsTruncation) {
  sim::Rng rng{3};
  ParetoFlowSize d{1.2, 2, 500};
  for (int i = 0; i < 50'000; ++i) {
    const auto v = d.sample(rng);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 500);
  }
}

TEST(ParetoFlowSize, IsHeavyTailed) {
  sim::Rng rng{4};
  ParetoFlowSize d{1.2, 2, 100'000};
  std::int64_t over_100 = 0, over_1000 = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const auto v = d.sample(rng);
    over_100 += v > 100 ? 1 : 0;
    over_1000 += v > 1000 ? 1 : 0;
  }
  // P(X > x) = (xm/x)^alpha: (2/100)^1.2 ~ 0.92%, (2/1000)^1.2 ~ 0.058%.
  EXPECT_NEAR(static_cast<double>(over_100) / kN, 0.0092, 0.002);
  EXPECT_NEAR(static_cast<double>(over_1000) / kN, 0.00058, 0.0004);
}

TEST(ParetoFlowSize, EmpiricalMeanTracksAnalyticMean) {
  sim::Rng rng{5};
  ParetoFlowSize d{1.5, 2, 10'000};
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(d.sample(rng));
  EXPECT_NEAR(sum / kN, d.mean(), d.mean() * 0.05);
}

TEST(EmpiricalFlowSize, MixtureProportionsRespected) {
  sim::Rng rng{6};
  EmpiricalFlowSize d{{{10, 0.7}, {100, 0.2}, {1000, 0.1}}};
  std::map<std::int64_t, int> counts;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) ++counts[d.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[10]) / kN, 0.7, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[100]) / kN, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1000]) / kN, 0.1, 0.01);
  EXPECT_DOUBLE_EQ(d.mean(), 0.7 * 10 + 0.2 * 100 + 0.1 * 1000);
}

TEST(EmpiricalFlowSize, SingleClassDegeneratesToFixed) {
  sim::Rng rng{7};
  EmpiricalFlowSize d{{{42, 3.0}}};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 42);
}

}  // namespace
}  // namespace rbs::traffic
