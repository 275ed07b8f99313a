#include "common/cli_options.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace taskprof::cli {
namespace {

enum : unsigned { kRun, kLoad, kMerge };

constexpr Command kCommands[] = {
    {.about = "run something"},
    {.name = "load", .files = "FILE", .min_files = 1, .max_files = 1},
    {.name = "merge", .files = "FILE", .min_files = 1,
     .max_files = kAnyCount},
};

constexpr Option kOptions[] = {
    {.name = "--trace", .help = "a flag", .commands = 1u << kRun},
    {.name = "--threads", .kind = Kind::kInt, .help = "bounded int",
     .fallback = "4", .min = 1, .max = 1024, .commands = 1u << kRun},
    {.name = "--delta", .kind = Kind::kInt, .help = "unbounded int",
     .fallback = "0", .commands = 1u << kRun},
    {.name = "--seed", .kind = Kind::kU64, .help = "u64", .fallback = "42",
     .commands = 1u << kRun},
    {.name = "--tolerance", .kind = Kind::kReal, .help = "real > 0",
     .fallback = "0.15", .min = 0, .min_open = true, .commands = 1u << kRun},
    {.name = "--engine", .kind = Kind::kChoice, .help = "choice",
     .fallback = "sim", .values = "sim|real", .commands = 1u << kRun},
    {.name = "--list", .kind = Kind::kInt, .help = "int list",
     .fallback = "2,4", .min = 1, .max = 8, .list = true,
     .commands = 1u << kRun},
    {.name = "--percents", .kind = Kind::kReal, .help = "real list",
     .min = 0, .max = 100, .min_open = true, .list = true,
     .commands = 1u << kRun},
    {.name = "--kernels", .kind = Kind::kChoice, .help = "choice list",
     .values = "fib|sort", .list = true, .commands = 1u << kRun},
    {.name = "--whatif", .kind = Kind::kString, .help = "repeatable",
     .values = "SPEC", .repeatable = true, .commands = 1u << kRun},
    {.name = "--report", .kind = Kind::kChoice, .help = "load's own --report",
     .fallback = "tree", .values = "tree|csv", .commands = 1u << kLoad},
    {.name = "--out", .kind = Kind::kString, .help = "a file",
     .values = "FILE", .required = true, .commands = 1u << kMerge},
};

constexpr Table kTable{kCommands, kOptions};

Args parse_words(std::initializer_list<const char*> words) {
  std::vector<const char*> argv = {"/usr/bin/prog"};
  argv.insert(argv.end(), words.begin(), words.end());
  return parse(kTable, static_cast<int>(argv.size()), argv.data());
}

/// The error a command line raises; fails the test when it parses.
UsageError error_of(std::initializer_list<const char*> words) {
  try {
    (void)parse_words(words);
  } catch (const UsageError& error) {
    return error;
  }
  ADD_FAILURE() << "command line parsed";
  return {};
}

void expect_rejected(const char* option, const std::string& value) {
  const std::string word = std::string(option) + "=" + value;
  EXPECT_EQ(error_of({word.c_str()}).option, option) << word;
}

TEST(CliOptions, DefaultsApplyWhenAbsent) {
  const Args args = parse_words({});
  EXPECT_EQ(args.program, "prog");
  EXPECT_EQ(args.command, kRun);
  EXPECT_FALSE(args.flag("--trace"));
  EXPECT_FALSE(args.given("--threads"));
  EXPECT_EQ(args.integer("--threads"), 4);
  EXPECT_EQ(args.u64("--seed"), 42u);
  EXPECT_DOUBLE_EQ(args.real("--tolerance"), 0.15);
  EXPECT_EQ(args.text("--engine"), "sim");
  EXPECT_EQ(args.integers("--list"), (std::vector<int>{2, 4}));
  EXPECT_TRUE(args.reals("--percents").empty());
  EXPECT_TRUE(args.texts("--kernels").empty());
  EXPECT_TRUE(args.texts("--whatif").empty());
}

TEST(CliOptions, BothValueFormsParse) {
  const Args args = parse_words({"--threads=8", "--seed", "7", "--engine",
                                 "real", "--list=1,8", "--percents",
                                 "0.5,100"});
  EXPECT_TRUE(args.given("--threads"));
  EXPECT_EQ(args.integer("--threads"), 8);
  EXPECT_EQ(args.u64("--seed"), 7u);
  EXPECT_EQ(args.text("--engine"), "real");
  EXPECT_EQ(args.integers("--list"), (std::vector<int>{1, 8}));
  EXPECT_EQ(args.reals("--percents"), (std::vector<double>{0.5, 100.0}));
}

TEST(CliOptions, NumbersMustBeTheWholeWord) {
  for (const char* option : {"--threads", "--seed", "--tolerance"}) {
    for (const char* value : {"", " 4", "+4", "4 ", "4x", "x4", "0x"}) {
      expect_rejected(option, value);
    }
  }
}

TEST(CliOptions, IntegerSignsAndOverflow) {
  EXPECT_EQ(parse_words({"--delta=-1"}).integer("--delta"), -1);
  EXPECT_EQ(parse_words({"--delta=2147483647"}).integer("--delta"),
            2147483647);
  expect_rejected("--delta", "2147483648");   // INT_MAX + 1
  expect_rejected("--delta", "-2147483649");  // INT_MIN - 1
  expect_rejected("--seed", "-1");
  EXPECT_EQ(parse_words({"--seed=18446744073709551615"}).u64("--seed"),
            UINT64_MAX);
  expect_rejected("--seed", "18446744073709551616");  // 2^64
}

TEST(CliOptions, HexOnlyForU64) {
  EXPECT_EQ(parse_words({"--seed=0x10"}).u64("--seed"), 16u);
  EXPECT_EQ(parse_words({"--seed=0XfF"}).u64("--seed"), 255u);
  expect_rejected("--delta", "0x10");
  expect_rejected("--tolerance", "0x10");
  expect_rejected("--seed", "0x-1");
}

TEST(CliOptions, RealsMustBeFinite) {
  for (const char* value : {"nan", "inf", "-inf", "1e400"}) {
    expect_rejected("--tolerance", value);
  }
  EXPECT_DOUBLE_EQ(parse_words({"--tolerance=1e-3"}).real("--tolerance"),
                   1e-3);
}

TEST(CliOptions, RangesAreInclusiveUnlessOpen) {
  EXPECT_EQ(parse_words({"--threads=1"}).integer("--threads"), 1);
  EXPECT_EQ(parse_words({"--threads=1024"}).integer("--threads"), 1024);
  expect_rejected("--threads", "0");
  expect_rejected("--threads", "1025");
  expect_rejected("--threads", "99999999999");
  expect_rejected("--tolerance", "0");
  expect_rejected("--tolerance", "-1");
  EXPECT_EQ(error_of({"--threads=0"}).reason, "must be in [1, 1024], got '0'");
}

TEST(CliOptions, ListsCheckEveryEntry) {
  for (const char* value : {"2,,4", "2,", ",2", "2,x", "2,9", "2,0"}) {
    expect_rejected("--list", value);
  }
  expect_rejected("--percents", "50,0");
  expect_rejected("--kernels", "fib,bogus");
  EXPECT_EQ(parse_words({"--kernels=sort,fib"}).texts("--kernels"),
            (std::vector<std::string>{"sort", "fib"}));
}

TEST(CliOptions, ChoicesAreExact) {
  expect_rejected("--engine", "bogus");
  expect_rejected("--engine", "Sim");
  EXPECT_EQ(error_of({"--engine=bogus"}).reason,
            "'bogus' is not one of sim|real");
}

TEST(CliOptions, MissingValueAtTheEnd) {
  const UsageError error = error_of({"--threads"});
  EXPECT_EQ(error.option, "--threads");
  EXPECT_EQ(error.reason, "missing value");
}

TEST(CliOptions, FlagTakesNoValue) {
  EXPECT_TRUE(parse_words({"--trace"}).flag("--trace"));
  const UsageError error = error_of({"--trace=1"});
  EXPECT_EQ(error.option, "--trace");
  EXPECT_EQ(error.reason, "takes no value");
}

TEST(CliOptions, UnknownOptionsAreNamed) {
  EXPECT_EQ(error_of({"--bogus=3"}).option, "--bogus");
  // --report belongs to load only; --trace to the default command only.
  EXPECT_EQ(error_of({"--report=csv"}).option, "--report");
  EXPECT_EQ(error_of({"load", "a", "--trace"}).option, "--trace");
}

TEST(CliOptions, PositionalCountsPerCommand) {
  EXPECT_EQ(error_of({"stray"}).option, "stray");
  EXPECT_EQ(error_of({"load"}).option, "prog load");
  EXPECT_EQ(error_of({"load", "a", "b"}).option, "b");
  EXPECT_EQ(error_of({"merge", "--out=o"}).option, "prog merge");
  const Args load = parse_words({"load", "a", "--report", "csv"});
  EXPECT_EQ(load.command, kLoad);
  EXPECT_EQ(load.files, (std::vector<std::string>{"a"}));
  EXPECT_EQ(load.text("--report"), "csv");
  const Args merge = parse_words({"merge", "a", "b", "--out=o", "c"});
  EXPECT_EQ(merge.files, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CliOptions, RequiredOptionMustBeGiven) {
  const UsageError error = error_of({"merge", "a"});
  EXPECT_EQ(error.option, "--out");
  EXPECT_EQ(error.reason.rfind("is required", 0), 0u) << error.reason;
}

TEST(CliOptions, RepeatedScalarKeepsItsLastValue) {
  const Args args = parse_words({"--threads=2", "--threads", "3", "--list=1",
                                 "--list=5,6"});
  EXPECT_EQ(args.integer("--threads"), 3);
  EXPECT_EQ(args.integers("--list"), (std::vector<int>{5, 6}));
}

TEST(CliOptions, RepeatedStringsAccumulate) {
  const Args args = parse_words({"--whatif=a=50", "--whatif", "b=25"});
  EXPECT_EQ(args.texts("--whatif"), (std::vector<std::string>{"a=50", "b=25"}));
}

TEST(CliOptions, OptionOfAnotherCommandReadsAsItsDefault) {
  const Args load = parse_words({"load", "a"});
  EXPECT_FALSE(load.given("--threads"));
  EXPECT_EQ(load.integer("--threads"), 4);
  EXPECT_EQ(load.text("--out"), "");
}

TEST(CliOptions, HelpStopsTheParse) {
  const Args args = parse_words({"load", "--help", "--bogus"});
  EXPECT_TRUE(args.help);
  EXPECT_EQ(args.command, kLoad);
  EXPECT_TRUE(parse_words({"-h"}).help);
}

TEST(CliOptions, UsageListsEveryRowOfTheCommand) {
  const std::string run = usage(kTable, "prog", kRun);
  for (const char* row :
       {"  --trace\n", "  --threads=INT  in [1, 1024], default 4\n",
        "  --delta=INT  default 0\n", "  --seed=U64  default 42\n",
        "  --tolerance=REAL  > 0, default 0.15\n",
        "  --engine=sim|real  default sim\n",
        "  --list=INT,...  in [1, 8], default 2,4\n",
        "  --percents=REAL,...  in (0, 100]\n", "  --kernels=fib|sort,...\n",
        "  --whatif=SPEC  repeatable\n", "  --help\n"}) {
    EXPECT_NE(run.find(row), std::string::npos) << row << "\n" << run;
  }
  EXPECT_EQ(run.find("--report"), std::string::npos);
  EXPECT_NE(run.find("  prog merge FILE...\n"), std::string::npos);
  const std::string merge = usage(kTable, "prog", kMerge);
  EXPECT_EQ(merge.rfind("usage: prog merge FILE... [options]\n", 0), 0u);
  EXPECT_NE(merge.find("  --out=FILE  required\n"), std::string::npos);
  EXPECT_EQ(merge.find("--threads"), std::string::npos);
}

TEST(CliOptions, TableWithoutDefaultCommandNeedsOne) {
  static constexpr Command commands[] = {{.name = "serve"},
                                         {.name = "report"}};
  constexpr Table table{commands, {}};
  const char* help[] = {"d", "--help"};
  const Args args = parse(table, 2, help);
  EXPECT_TRUE(args.help);
  EXPECT_EQ(args.command, kNoCommand);
  EXPECT_NE(usage(table, "d", kNoCommand).find("  d report\n"),
            std::string::npos);
  const char* none[] = {"d"};
  EXPECT_THROW((void)parse(table, 1, none), UsageError);
  const char* bogus[] = {"d", "bogus"};
  EXPECT_THROW((void)parse(table, 2, bogus), UsageError);
}

TEST(CliOptionsDeathTest, DefaultOutsideItsRangeIsABug) {
  static constexpr Option rows[] = {{.name = "--threads", .kind = Kind::kInt,
                                     .help = "", .fallback = "0", .min = 1}};
  static constexpr Command commands[] = {{}};
  constexpr Table table{commands, rows};
  const char* argv[] = {"prog"};
  EXPECT_DEATH((void)parse(table, 1, argv), "default out of its range");
}

}  // namespace
}  // namespace taskprof::cli
