// Tests for the strict number parsers shared by rbsim and the bench CLI.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/cli.hpp"

namespace rbs::experiment {
namespace {

TEST(CliParse, IntAcceptsOnlyAWholeInteger) {
  long long v = 0;
  ASSERT_TRUE(parse_int("62", v));
  EXPECT_EQ(v, 62);
  ASSERT_TRUE(parse_int("-1", v));
  EXPECT_EQ(v, -1);
  for (const char* bad : {"1e12", "abc", "", "0.5", "nan", "62x", "99999999999999999999"}) {
    EXPECT_FALSE(parse_int(bad, v)) << "'" << bad << "'";
  }
}

TEST(CliParse, DoubleAcceptsOnlyAWholeFiniteNumber) {
  double v = 0.0;
  ASSERT_TRUE(parse_double("62", v));
  EXPECT_EQ(v, 62.0);
  ASSERT_TRUE(parse_double("0.8", v));
  EXPECT_EQ(v, 0.8);
  ASSERT_TRUE(parse_double("-1", v));
  EXPECT_EQ(v, -1.0);
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "abc", "", "yes", "0.5s"}) {
    EXPECT_FALSE(parse_double(bad, v)) << "'" << bad << "'";
  }
}

CliOptions parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data(), "test");
}

TEST(CliParse, SeedAndThreadsTakeNonNegativeIntegers) {
  const CliOptions opts = parse({"--seed", "62", "--threads", "2"});
  EXPECT_EQ(opts.seed, 62u);
  EXPECT_EQ(opts.threads, 2);
}

TEST(CliParseDeathTest, BadSeedOrThreadsExitsTwo) {
  for (const char* flag : {"--seed", "--threads"}) {
    for (const char* bad : {"-1", "abc", "1e12", ""}) {
      EXPECT_EXIT((void)parse({flag, bad}), ::testing::ExitedWithCode(2),
                  std::string{"bad "} + flag)
          << flag << " '" << bad << "'";
    }
  }
}

}  // namespace
}  // namespace rbs::experiment
