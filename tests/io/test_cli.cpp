#include "io/cli.hpp"

#include <gtest/gtest.h>

#include <array>

namespace pas::io {
namespace {

TEST(Cli, ParsesTypedOptions) {
  std::int64_t count = 10;
  double rate = 1.5;
  bool verbose = false;
  std::string name = "default";
  Cli cli("prog", "test");
  cli.add_int("count", &count, "a count");
  cli.add_double("rate", &rate, "a rate");
  cli.add_flag("verbose", &verbose, "verbosity");
  cli.add_string("name", &name, "a name");

  const std::array<const char*, 8> argv{"prog",   "--count", "42",
                                        "--rate", "2.25",    "--verbose",
                                        "--name", "pas"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(rate, 2.25);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "pas");
}

TEST(Cli, EqualsSyntax) {
  std::int64_t n = 0;
  Cli cli("prog", "test");
  cli.add_int("n", &n, "n");
  const std::array<const char*, 2> argv{"prog", "--n=7"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(n, 7);
}

TEST(Cli, FlagWithExplicitValue) {
  bool flag = true;
  Cli cli("prog", "test");
  cli.add_flag("flag", &flag, "f");
  const std::array<const char*, 2> argv{"prog", "--flag=false"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(flag);
}

TEST(Cli, UnknownOptionFails) {
  Cli cli("prog", "test");
  const std::array<const char*, 2> argv{"prog", "--nope"};
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.status(), 2);
}

TEST(Cli, BadValueFails) {
  std::int64_t n = 0;
  Cli cli("prog", "test");
  cli.add_int("n", &n, "n");
  const std::array<const char*, 3> argv{"prog", "--n", "abc"};
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.status(), 2);
}

TEST(Cli, MissingValueFails) {
  std::int64_t n = 0;
  Cli cli("prog", "test");
  cli.add_int("n", &n, "n");
  const std::array<const char*, 2> argv{"prog", "--n"};
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, HelpReturnsFalseWithStatusZero) {
  Cli cli("prog", "test");
  const std::array<const char*, 2> argv{"prog", "--help"};
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.status(), 0);
}

TEST(Cli, HelpTextListsOptionsAndDefaults) {
  std::int64_t n = 5;
  Cli cli("prog", "does things");
  cli.add_int("n", &n, "the n");
  const std::string h = cli.help();
  EXPECT_NE(h.find("--n"), std::string::npos);
  EXPECT_NE(h.find("default: 5"), std::string::npos);
  EXPECT_NE(h.find("does things"), std::string::npos);
}

TEST(Cli, PositionalArgumentsCollected) {
  Cli cli("prog", "test");
  const std::array<const char*, 3> argv{"prog", "pos1", "pos2"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.positional(), (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(Cli, RecordsGivenOptionsOnceInOrder) {
  std::int64_t n = 5;
  double x = 0.0;
  bool verbose = false;
  std::string name;
  Cli cli("prog", "test");
  cli.add_int("n", &n, "n");
  cli.add_double("x", &x, "x");
  cli.add_flag("verbose", &verbose, "v");
  cli.add_string("name", &name, "name");
  const std::array<const char*, 7> argv{
      "prog", "--verbose", "--n=5", "pos", "--x", "2", "--n=6"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  // --n given at its default still counts; --name was never given.
  EXPECT_EQ(cli.given(), (std::vector<std::string>{"verbose", "n", "x"}));
  EXPECT_EQ(n, 6);
}

TEST(Cli, DuplicateOptionThrows) {
  std::int64_t n = 0;
  Cli cli("prog", "test");
  cli.add_int("n", &n, "n");
  EXPECT_THROW(cli.add_int("n", &n, "again"), std::logic_error);
}

}  // namespace
}  // namespace pas::io
