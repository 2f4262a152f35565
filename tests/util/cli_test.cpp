#include "util/cli.hpp"

#include "util/check.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pimnw {
namespace {

Cli make_cli() {
  Cli cli("prog", "test program");
  cli.flag("pairs", std::int64_t{100}, "number of pairs")
      .flag("rate", 0.05, "error rate")
      .flag("verbose", false, "chatty output")
      .flag("out", std::string("a.txt"), "output path");
  return cli;
}

void parse(Cli& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(CliTest, DefaultsApply) {
  Cli cli = make_cli();
  parse(cli, {});
  EXPECT_EQ(cli.get_int("pairs"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.05);
  EXPECT_FALSE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_string("out"), "a.txt");
}

TEST(CliTest, EqualsSyntax) {
  Cli cli = make_cli();
  parse(cli, {"--pairs=250", "--rate=0.1", "--out=b.txt"});
  EXPECT_EQ(cli.get_int("pairs"), 250);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.1);
  EXPECT_EQ(cli.get_string("out"), "b.txt");
}

TEST(CliTest, SpaceSyntax) {
  Cli cli = make_cli();
  parse(cli, {"--pairs", "7"});
  EXPECT_EQ(cli.get_int("pairs"), 7);
}

TEST(CliTest, BareBoolFlagSetsTrue) {
  Cli cli = make_cli();
  parse(cli, {"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliTest, BoolAcceptsExplicitValues) {
  Cli cli = make_cli();
  parse(cli, {"--verbose=true"});
  EXPECT_TRUE(cli.get_bool("verbose"));
  Cli cli2 = make_cli();
  parse(cli2, {"--verbose=0"});
  EXPECT_FALSE(cli2.get_bool("verbose"));
}

// A command-line error exits 2 with the error and the usage on stderr.
TEST(CliTest, UnknownFlagExits2) {
  Cli cli = make_cli();
  EXPECT_EXIT(parse(cli, {"--nope=1"}), ::testing::ExitedWithCode(2),
              "prog: unknown flag --nope\n(.|\n)*Flags:");
}

TEST(CliTest, MalformedIntExits2) {
  Cli cli = make_cli();
  EXPECT_EXIT(parse(cli, {"--pairs=12x"}), ::testing::ExitedWithCode(2),
              "bad value for --pairs: 12x");
}

TEST(CliTest, MalformedBoolExits2) {
  Cli cli = make_cli();
  EXPECT_EXIT(parse(cli, {"--verbose=maybe"}), ::testing::ExitedWithCode(2),
              "bad value for --verbose: maybe");
}

TEST(CliTest, MissingValueExits2) {
  Cli cli = make_cli();
  EXPECT_EXIT(parse(cli, {"--pairs"}), ::testing::ExitedWithCode(2),
              "missing value for --pairs");
}

TEST(CliTest, NegativeNumbers) {
  Cli cli = make_cli();
  parse(cli, {"--pairs=-3", "--rate=-0.5"});
  EXPECT_EQ(cli.get_int("pairs"), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), -0.5);
}

TEST(CliTest, WrongTypeAccessIsAnError) {
  Cli cli = make_cli();
  parse(cli, {});
  EXPECT_THROW((void)cli.get_int("rate"), CheckError);
  EXPECT_THROW((void)cli.get_bool("pairs"), CheckError);
}

TEST(CliTest, UnregisteredAccessIsAnError) {
  Cli cli = make_cli();
  parse(cli, {});
  EXPECT_THROW((void)cli.get_int("missing"), CheckError);
}

TEST(CliTest, DuplicateRegistrationIsAnError) {
  Cli cli("p", "d");
  cli.flag("x", std::int64_t{1}, "first");
  EXPECT_THROW(cli.flag("x", 2.0, "second"), CheckError);
}

TEST(CliTest, UsageListsFlags) {
  Cli cli = make_cli();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--pairs"), std::string::npos);
  EXPECT_NE(usage.find("--rate"), std::string::npos);
  EXPECT_NE(usage.find("error rate"), std::string::npos);
}

TEST(CliTest, PositionalArgumentRejected) {
  Cli cli = make_cli();
  EXPECT_EXIT(parse(cli, {"stray"}), ::testing::ExitedWithCode(2),
              "positional arguments not supported: stray");
}

TEST(CliTest, HelpExits0) {
  Cli cli = make_cli();
  EXPECT_EXIT(parse(cli, {"--help"}), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace pimnw
