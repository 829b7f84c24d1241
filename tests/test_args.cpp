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

TEST(Args, FlagsAndPositionals) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--verbose", "input.fa", "more.fa"}));
  EXPECT_TRUE(p.get_flag("verbose"));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.fa");
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
  auto p = make();
  ASSERT_TRUE(parse(p, {"--count=abc"}));
  EXPECT_THROW(p.get_int("count"), RuntimeError);
}

TEST(Args, BadDoubleThrows) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--rate=xyz"}));
  EXPECT_THROW(p.get_double("rate"), RuntimeError);
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

TEST(Args, FlagWithExplicitValue) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--verbose=false"}));
  EXPECT_FALSE(p.get_flag("verbose"));
  ASSERT_TRUE(parse(p, {"--verbose=yes"}));
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(Args, ReparseResetsState) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--count=9", "pos"}));
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get_int("count"), 5);
  EXPECT_TRUE(p.positional().empty());
}

}  // namespace
}  // namespace pioblast::util
