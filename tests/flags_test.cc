#include "common/flags.h"

#include <gtest/gtest.h>

namespace asf {
namespace {

Result<Flags> ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  auto flags = ParseArgs({"--streams=500", "--protocol=ft-nrp"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("streams"), "500");
  EXPECT_EQ(flags->GetString("protocol"), "ft-nrp");
}

TEST(FlagsTest, SpaceForm) {
  auto flags = ParseArgs({"--streams", "500"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("streams"), "500");
}

TEST(FlagsTest, BareBooleanForm) {
  auto flags = ParseArgs({"--inspect", "--out=x.csv"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->Has("inspect"));
  EXPECT_EQ(flags->GetString("inspect"), "true");
  auto b = flags->GetBool("inspect", false);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
}

TEST(FlagsTest, BareBooleanBeforeAnotherFlag) {
  auto flags = ParseArgs({"--verbose", "--n=3"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("verbose"), "true");
  EXPECT_EQ(flags->GetString("n"), "3");
}

TEST(FlagsTest, Positional) {
  auto flags = ParseArgs({"input.csv", "--k=3", "more"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->positional(),
            (std::vector<std::string>{"input.csv", "more"}));
}

TEST(FlagsTest, NumericAccessors) {
  auto flags = ParseArgs({"--eps=0.25", "--k=42", "--neg=-7"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetDouble("eps", 0).value(), 0.25);
  EXPECT_EQ(flags->GetInt("k", 0).value(), 42);
  EXPECT_EQ(flags->GetInt("neg", 0).value(), -7);
  EXPECT_EQ(flags->GetDouble("absent", 1.5).value(), 1.5);
  EXPECT_EQ(flags->GetInt("absent", 9).value(), 9);
}

TEST(FlagsTest, NumericErrors) {
  auto flags = ParseArgs({"--eps=abc", "--k=1.5"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->GetDouble("eps", 0).ok());
  EXPECT_FALSE(flags->GetInt("k", 0).ok());
  // The rule GetDouble applies, also used for list items and LO:HI halves.
  for (const char* text : {"", "abc", "4OO", "O.2", "0.2x", "1e999"}) {
    EXPECT_FALSE(ParseDouble(text, "--x").ok()) << text;
  }
  EXPECT_EQ(ParseDouble("-0.5", "--x").value(), -0.5);
}

TEST(FlagsTest, BoolForms) {
  auto flags =
      ParseArgs({"--a=true", "--b=false", "--c=1", "--d=0", "--e=yes"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->GetBool("a", false).value());
  EXPECT_FALSE(flags->GetBool("b", true).value());
  EXPECT_TRUE(flags->GetBool("c", false).value());
  EXPECT_FALSE(flags->GetBool("d", true).value());
  EXPECT_FALSE(flags->GetBool("e", false).ok());  // "yes" is not accepted
  EXPECT_TRUE(flags->GetBool("absent", true).value());
}

TEST(FlagsTest, MalformedFlagRejected) {
  EXPECT_FALSE(ParseArgs({"--"}).ok());
  EXPECT_FALSE(ParseArgs({"--=5"}).ok());
}

TEST(FlagsTest, LastValueWins) {
  auto flags = ParseArgs({"--k=1", "--k=2"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("k", 0).value(), 2);
}

TEST(FlagsTest, NamesLists) {
  auto flags = ParseArgs({"--b=1", "--a=2"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->Names(), (std::vector<std::string>{"a", "b"}));
}

TEST(FlagsTest, RejectUnknownNamesTheFirstStrayFlag) {
  auto flags = ParseArgs({"--eps-plus=0.3", "--eps_minus=0.3", "--zz", "x"});
  ASSERT_TRUE(flags.ok());
  const Status status = flags->RejectUnknown({"eps-plus", "eps-minus"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("unknown flag --eps_minus"),
            std::string::npos)
      << status.ToString();
  // Known flags and positional arguments pass; so does no flag at all.
  EXPECT_TRUE(flags->RejectUnknown({"eps-plus", "eps_minus", "zz"}).ok());
  auto empty = ParseArgs({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->RejectUnknown({}).ok());
}

}  // namespace
}  // namespace asf
