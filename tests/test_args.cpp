// Tests for the command-line argument parser used by the tools.
#include <gtest/gtest.h>

#include "util/args.h"
#include "util/error.h"

namespace pioblast::util {
namespace {

ArgParser make() {
  ArgParser p("prog", "test program");
  p.add("count", "5", "a number")
      .add("name", "default", "a string")
      .add("rate", "1.5", "a double")
      .add_flag("verbose", "a flag");
  return p;
}

bool parse(ArgParser& p, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, DefaultsApply) {
  auto p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_EQ(p.get_int("count"), 5);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.5);
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(Args, EqualsAndSpaceForms) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--count=9", "--name", "zig"}));
  EXPECT_EQ(p.get_int("count"), 9);
  EXPECT_EQ(p.get("name"), "zig");
}

// No program takes positional arguments, so anything that is not an
// option fails, naming it: a one-dash option, a stray word, and a value
// given to a flag with a space.
TEST(Args, FlagsAndPositionals) {
  const auto rejects = [](std::initializer_list<const char*> args,
                          const std::string& culprit) {
    auto p = make();
    EXPECT_FALSE(parse(p, args)) << culprit;
    EXPECT_NE(p.error().find("unexpected argument '" + culprit + "'"),
              std::string::npos)
        << p.error();
    EXPECT_NE(p.error().find("usage:"), std::string::npos);
  };
  rejects({"--verbose", "input.fa"}, "input.fa");
  rejects({"-count", "4"}, "-count");
  rejects({"--verbose", "on"}, "on");
  rejects({"-"}, "-");
}

TEST(Args, UnknownOptionFails) {
  auto p = make();
  EXPECT_FALSE(parse(p, {"--bogus=1"}));
  EXPECT_NE(p.error().find("unknown option --bogus"), std::string::npos);
  EXPECT_NE(p.error().find("usage:"), std::string::npos);
}

TEST(Args, MissingValueFails) {
  auto p = make();
  EXPECT_FALSE(parse(p, {"--count"}));
  EXPECT_NE(p.error().find("needs a value"), std::string::npos);
}

TEST(Args, HelpProducesUsage) {
  auto p = make();
  EXPECT_FALSE(parse(p, {"--help"}));
  EXPECT_EQ(p.error().rfind("usage:", 0), 0u);
  EXPECT_NE(p.error().find("--verbose"), std::string::npos);
}

TEST(Args, BadIntegerThrows) {
  for (const char* arg : {"--count=abc", "--count= 9", "--count=+9",
                          "--count=9x", "--count=", "--count=1e3"}) {
    auto p = make();
    ASSERT_TRUE(parse(p, {arg}));
    EXPECT_THROW(p.get_int("count"), RuntimeError) << arg;
  }
}

TEST(Args, BadDoubleThrows) {
  for (const char* arg : {"--rate=xyz", "--rate=nan", "--rate=inf",
                          "--rate=1e400", "--rate= 1", "--rate=+1"}) {
    auto p = make();
    ASSERT_TRUE(parse(p, {arg}));
    EXPECT_THROW(p.get_double("rate"), RuntimeError) << arg;
  }
}

// The values pbbench/run_benchmark.py passes keep their meaning.
TEST(Args, WholeNumbersRead) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--count", "4242", "--rate", "20"}));
  EXPECT_EQ(p.get_int("count"), 4242);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 20.0);
  ASSERT_TRUE(parse(p, {"--count=-3", "--rate=1.0"}));
  EXPECT_EQ(p.get_int("count"), -3);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.0);
}

TEST(Args, ErrorNamesTheOption) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--count=abc"}));
  try {
    p.get_int("count");
    FAIL() << "expected an error";
  } catch (const RuntimeError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("--count: expects an integer", 0),
              0u)
        << e.what();
  }
}

TEST(Args, UnregisteredAccessThrows) {
  auto p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get("nope"), ContractViolation);
}

TEST(Args, DuplicateRegistrationThrows) {
  ArgParser p("prog");
  p.add("x", "1", "h");
  EXPECT_THROW(p.add("x", "2", "h"), ContractViolation);
}

// A flag is given or not: any value, even one that reads as a boolean,
// is a parse error naming the flag.
TEST(Args, FlagWithExplicitValue) {
  for (const char* arg :
       {"--verbose=false", "--verbose=yes", "--verbose=on", "--verbose="}) {
    auto p = make();
    EXPECT_FALSE(parse(p, {arg})) << arg;
    EXPECT_NE(p.error().find("option --verbose is a flag"), std::string::npos)
        << p.error();
  }
}

TEST(Args, ReparseResetsState) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--count=9", "--verbose"}));
  EXPECT_FALSE(parse(p, {"stray"}));
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get_int("count"), 5);
  EXPECT_FALSE(p.get_flag("verbose"));
  EXPECT_TRUE(p.error().empty());
}

}  // namespace
}  // namespace pioblast::util
