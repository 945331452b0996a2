// Tests for the CLI option parser.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fbc {
namespace {

CliParser make_parser() {
  CliParser cli("prog", "test program");
  cli.add_option("jobs", "number of jobs", "100");
  cli.add_option("alpha", "zipf alpha", "1.0");
  cli.add_option("name", "a string", "default");
  cli.add_flag("csv", "emit csv");
  return cli;
}

TEST(Cli, DefaultsApply) {
  CliParser cli = make_parser();
  cli.parse(std::vector<std::string>{});
  EXPECT_EQ(cli.get_u64("jobs"), 100u);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 1.0);
  EXPECT_EQ(cli.get_string("name"), "default");
  EXPECT_FALSE(cli.get_flag("csv"));
  EXPECT_FALSE(cli.was_set("jobs"));
}

TEST(Cli, EqualsForm) {
  CliParser cli = make_parser();
  cli.parse({"--jobs=500", "--alpha=0.8"});
  EXPECT_EQ(cli.get_u64("jobs"), 500u);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 0.8);
  EXPECT_TRUE(cli.was_set("jobs"));
}

TEST(Cli, SpaceForm) {
  CliParser cli = make_parser();
  cli.parse({"--jobs", "250", "--name", "hello"});
  EXPECT_EQ(cli.get_u64("jobs"), 250u);
  EXPECT_EQ(cli.get_string("name"), "hello");
}

TEST(Cli, Flags) {
  CliParser cli = make_parser();
  cli.parse({"--csv"});
  EXPECT_TRUE(cli.get_flag("csv"));
  CliParser cli2 = make_parser();
  cli2.parse({"--csv=false"});
  EXPECT_FALSE(cli2.get_flag("csv"));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.parse({"--bogus=1"}), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.parse({"--jobs"}), std::invalid_argument);
}

TEST(Cli, PositionalArgumentThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.parse({"stray"}), std::invalid_argument);
}

TEST(Cli, BadNumberThrows) {
  // A sign, trailing characters or an exponent used to parse as a wrapped
  // or truncated count (-1 -> 2^64-1, 12abc -> 12, 1e6 -> 1).
  for (const char* bad : {"notanumber", "-1", "12abc", "1e6"}) {
    CliParser cli = make_parser();
    cli.parse({std::string("--jobs=") + bad});
    EXPECT_THROW((void)cli.get_u64("jobs"), std::invalid_argument) << bad;
  }
}

TEST(Cli, FlagWithBadValueThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.parse({"--csv=maybe"}), std::invalid_argument);
}

TEST(Cli, UnregisteredGetterThrows) {
  CliParser cli = make_parser();
  cli.parse(std::vector<std::string>{});
  EXPECT_THROW((void)cli.get_string("nothere"), std::invalid_argument);
}

TEST(Cli, UsageListsOptions) {
  CliParser cli = make_parser();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--jobs"), std::string::npos);
  EXPECT_NE(usage.find("--csv"), std::string::npos);
  EXPECT_NE(usage.find("default: 100"), std::string::npos);
}

TEST(Cli, NegativeInteger) {
  CliParser cli("p", "d");
  cli.add_option("delta", "signed", "-5");
  cli.parse(std::vector<std::string>{});
  EXPECT_EQ(cli.get_i64("delta"), -5);
}

}  // namespace
}  // namespace fbc
