#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace whatsup {
namespace {

Flags make_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()), args.data());
}

TEST(Flags, EqualsSyntax) {
  Flags f = make_flags({"--users=480", "--scale=0.5", "--name=survey"});
  EXPECT_EQ(f.get_int("users", 0), 480);
  EXPECT_DOUBLE_EQ(f.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(f.get_string("name", ""), "survey");
}

TEST(Flags, SpaceSyntax) {
  Flags f = make_flags({"--users", "750", "--name", "digg"});
  EXPECT_EQ(f.get_int("users", 0), 750);
  EXPECT_EQ(f.get_string("name", ""), "digg");
}

TEST(Flags, DefaultsWhenAbsent) {
  Flags f = make_flags({});
  EXPECT_EQ(f.get_int("users", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("scale", 1.5), 1.5);
  EXPECT_EQ(f.get_string("name", "x"), "x");
  EXPECT_TRUE(f.get_bool("verbose", true));
}

TEST(Flags, BareBooleanFlag) {
  Flags f = make_flags({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, BoolParsing) {
  Flags f = make_flags({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_TRUE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

TEST(Flags, HelpRequested) {
  Flags f = make_flags({"--help"});
  EXPECT_TRUE(f.help_requested());
  f.get_int("users", 480, "number of users");
  std::ostringstream os;
  EXPECT_TRUE(f.maybe_print_help(os));
  EXPECT_NE(os.str().find("--users"), std::string::npos);
  EXPECT_NE(os.str().find("number of users"), std::string::npos);
}

TEST(Flags, NoHelpMeansNoOutput) {
  Flags f = make_flags({});
  std::ostringstream os;
  EXPECT_FALSE(f.maybe_print_help(os));
  EXPECT_TRUE(os.str().empty());
}

TEST(Flags, UnknownFlagsReported) {
  Flags f = make_flags({"--known=1", "--typoed=2"});
  f.get_int("known", 0);
  const auto unknown = f.unknown_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typoed");
}

TEST(Flags, RejectUnknownPrintsEachAndReportsAny) {
  Flags f = make_flags({"--known=1", "--typoed=2", "--other"});
  f.get_int("known", 0);
  std::ostringstream os;
  EXPECT_TRUE(f.reject_unknown(os));
  EXPECT_EQ(os.str(), "error: unknown flag --other\nerror: unknown flag --typoed\n");

  Flags clean = make_flags({"--known=1"});
  clean.get_int("known", 0);
  std::ostringstream quiet;
  EXPECT_FALSE(clean.reject_unknown(quiet));
  EXPECT_TRUE(quiet.str().empty());
}

}  // namespace
}  // namespace whatsup
