#include "util/args.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace seg {
namespace {

ArgParser make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm) {
  const auto p = make({"--n=128", "--tau=0.42"});
  EXPECT_EQ(p.get_int("n"), 128);
  EXPECT_DOUBLE_EQ(p.get_double("tau"), 0.42);
}

TEST(ArgParser, SpaceForm) {
  const auto p = make({"--n", "64", "--name", "fig1"});
  EXPECT_EQ(p.get_int("n"), 64);
  EXPECT_EQ(p.get_string("name"), "fig1");
}

TEST(ArgParser, BooleanFlag) {
  const auto p = make({"--verbose"});
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_TRUE(p.has("verbose"));
}

TEST(ArgParser, BoolSpellings) {
  const auto p = make({"--a=true", "--b=0", "--c=yes", "--d=off"});
  EXPECT_TRUE(p.get_bool("a"));
  EXPECT_FALSE(p.get_bool("b"));
  EXPECT_TRUE(p.get_bool("c"));
  EXPECT_FALSE(p.get_bool("d"));
}

TEST(ArgParser, DefaultsWhenMissing) {
  const auto p = make({});
  EXPECT_EQ(p.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(p.get_double("tau", 0.5), 0.5);
  EXPECT_EQ(p.get_string("out", "x.csv"), "x.csv");
  EXPECT_FALSE(p.get_bool("flag", false));
  EXPECT_TRUE(p.get_bool("flag2", true));
}

TEST(ArgParser, MalformedNumbersFallBack) {
  const auto p = make({"--n=abc", "--tau=zz"});
  EXPECT_EQ(p.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(p.get_double("tau", 0.25), 0.25);
}

TEST(ArgParser, MalformedBoolRecordsError) {
  const auto p = make({"--resume=maybe", "--quiet"});
  EXPECT_FALSE(p.get_bool("resume", false));
  EXPECT_TRUE(p.get_bool("quiet"));
  ASSERT_EQ(p.errors().size(), 1u);
  EXPECT_NE(p.errors()[0].find("--resume"), std::string::npos);
  EXPECT_NE(p.errors()[0].find("'maybe'"), std::string::npos);
}

TEST(ArgParser, CheckUsageRejectsUnknownFlagsStrayArgsAndBadValues) {
  const std::vector<std::string> known = {"n", "w", "tau", "seed"};
  {
    const auto p = make({"--n", "64", "--tau=0.4"});
    p.get_int("n");
    p.get_double("tau");
    testing::internal::CaptureStderr();
    EXPECT_TRUE(p.check_usage(known));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  }
  {
    // A typo names the nearest known flag; a stray argument and a
    // malformed value are each reported on their own line.
    const auto p = make({"--nn", "5", "stray", "--seed=10x"});
    p.get_int("seed", 1);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(p.check_usage(known));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown flag --nn (did you mean --n?)"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("unexpected argument 'stray'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("--seed: not an integer: '10x'"), std::string::npos)
        << err;
  }
}

TEST(ArgParser, PositionalCollected) {
  const auto p = make({"input.txt", "--n=3", "other"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.txt");
  EXPECT_EQ(p.positional()[1], "other");
}

TEST(ArgParser, ProgramNameCaptured) {
  const auto p = make({});
  EXPECT_EQ(p.program_name(), "prog");
}

TEST(ArgParser, FlagFollowedByFlagIsBoolean) {
  const auto p = make({"--fast", "--n=10"});
  EXPECT_TRUE(p.get_bool("fast"));
  EXPECT_EQ(p.get_int("n"), 10);
}

TEST(ArgParser, LastValueWins) {
  const auto p = make({"--n=1", "--n=2"});
  EXPECT_EQ(p.get_int("n"), 2);
}

TEST(ArgParser, NegativeNumbersAsValues) {
  const auto p = make({"--offset=-5"});
  EXPECT_EQ(p.get_int("offset"), -5);
}

TEST(ArgParser, HasIsFalseForMissing) {
  const auto p = make({"--x=1"});
  EXPECT_TRUE(p.has("x"));
  EXPECT_FALSE(p.has("y"));
}

}  // namespace
}  // namespace seg
