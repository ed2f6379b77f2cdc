/**
 * @file
 * The tools' option layer: typed parsing, strict rejection of
 * malformed values, and the --help layout.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cli/options.hh"
#include "exec/thread_pool.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace cli {
namespace {

/** Parse @p args (argv[0] = "prog") with @p table. */
bool
parseArgs(OptionTable &table, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return table.parse(static_cast<int>(argv.size()), argv.data());
}

/** Whether parsing @p args fails with a message containing @p what. */
::testing::AssertionResult
rejects(OptionTable &table, std::vector<std::string> args,
        const std::string &what)
{
    setThrowOnError(true);
    std::string msg;
    try {
        parseArgs(table, args);
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    setThrowOnError(false);
    if (msg.empty())
        return ::testing::AssertionFailure() << "accepted";
    if (msg.find(what) == std::string::npos)
        return ::testing::AssertionFailure() << msg;
    return ::testing::AssertionSuccess();
}

struct Targets
{
    std::string name;
    std::uint64_t count = 5;
    unsigned small = 1;
    double ratio = 0.5;
    bool on = false;
    std::vector<std::string> list{"a"};
    unsigned jobs = 1;
    std::string mode;

    OptionTable
    table()
    {
        Option m = text("--mode", "[M]", mode, "mode");
        m.implicit = "dflt";
        return OptionTable("[options]", {
            text("--name", "S", name, "a name"),
            integer("--count", "N", count, "a count"),
            integer("--small", "N", small, "a 32-bit count"),
            real("--ratio", "F", ratio, "a ratio"),
            flag("--on", on, "a switch"),
            csv("--list", "LIST", list, "a list"),
            threads("--jobs", "N", jobs, "workers"),
            m,
        });
    }
};

TEST(CliOptions, ParsesEveryKind)
{
    Targets t;
    OptionTable table = t.table();
    ASSERT_TRUE(parseArgs(table, {"--name", "x", "--count", "12",
                                  "--small", "4294967295", "--ratio",
                                  "-1.5e3", "--on", "--list", "p,,q",
                                  "--jobs", "3", "--mode", "m1"}));
    EXPECT_EQ(t.name, "x");
    EXPECT_EQ(t.count, 12u);
    EXPECT_EQ(t.small, 4294967295u);
    EXPECT_EQ(t.ratio, -1500.0);
    EXPECT_TRUE(t.on);
    EXPECT_EQ(t.list, (std::vector<std::string>{"p", "q"}));
    EXPECT_EQ(t.jobs, 3u);
    EXPECT_EQ(t.mode, "m1");
    EXPECT_TRUE(table.given("--count"));
    EXPECT_FALSE(table.given("--help"));
}

TEST(CliOptions, DefaultsStayAndRepeatsAreLastWins)
{
    Targets t;
    OptionTable table = t.table();
    ASSERT_TRUE(parseArgs(table, {"--name", "a", "--name", "b"}));
    EXPECT_EQ(t.name, "b");
    EXPECT_EQ(t.count, 5u);
    EXPECT_EQ(t.list, (std::vector<std::string>{"a"}));
    EXPECT_FALSE(table.given("--count"));
}

TEST(CliOptions, ZeroThreadsMeansOnePerCore)
{
    Targets t;
    OptionTable table = t.table();
    ASSERT_TRUE(parseArgs(table, {"--jobs", "0"}));
    EXPECT_EQ(t.jobs, exec::ThreadPool::hardwareThreads());
}

TEST(CliOptions, OptionalOperandFallsBackToItsImplicitValue)
{
    Targets t;
    OptionTable table = t.table();
    ASSERT_TRUE(parseArgs(table, {"--mode", "--on"}));
    EXPECT_EQ(t.mode, "dflt");
    EXPECT_TRUE(t.on);

    Targets u;
    OptionTable last = u.table();
    ASSERT_TRUE(parseArgs(last, {"--mode"}));
    EXPECT_EQ(u.mode, "dflt");
}

TEST(CliOptions, RejectsMalformedNumbersNamingOptionAndValue)
{
    Targets t;
    OptionTable table = t.table();
    EXPECT_TRUE(rejects(table, {"--count", "abc"}, "--count: 'abc'"));
    EXPECT_TRUE(rejects(table, {"--count", "10x"}, "--count: '10x'"));
    EXPECT_TRUE(rejects(table, {"--count", "-1"}, "--count: '-1'"));
    EXPECT_TRUE(rejects(table, {"--count", "+1"}, "--count: '+1'"));
    EXPECT_TRUE(rejects(table, {"--count", ""}, "--count: ''"));
    EXPECT_TRUE(rejects(table, {"--count", "99999999999999999999"},
                        "--count: '99999999999999999999'"));
    EXPECT_TRUE(rejects(table, {"--small", "4294967296"},
                        "--small: '4294967296'"));
    EXPECT_TRUE(rejects(table, {"--jobs", "-2"}, "--jobs: '-2'"));
    EXPECT_TRUE(rejects(table, {"--ratio", "6x"}, "--ratio: '6x'"));
    EXPECT_TRUE(rejects(table, {"--ratio", " 6"}, "--ratio: ' 6'"));
    EXPECT_TRUE(rejects(table, {"--ratio", "1e999"}, "--ratio: '1e999'"));
}

TEST(CliOptions, RejectsUnknownOptionsAndMissingValues)
{
    Targets t;
    OptionTable table = t.table();
    EXPECT_TRUE(rejects(table, {"--nope"}, "unknown option '--nope'"));
    EXPECT_TRUE(rejects(table, {"stray"}, "unknown option 'stray'"));
    EXPECT_TRUE(rejects(table, {"--count"}, "missing value for --count"));
}

TEST(CliOptions, HelpLaysOutOptionsInTwoColumns)
{
    std::string s;
    bool b = false;
    OptionTable table("[options]   (note)", {
        text("--a", "N", s, "first line\nsecond line"),
        heading("group:"),
        flag("--bb", b, "a switch"),
        text("--long-option-name", "PATH", s, "past the column"),
        text("--exactly-col", "PATHS", s, "at the column"),
    });
    EXPECT_EQ(table.help("tool"),
              "usage: tool [options]   (note)\n"
              "  --a N              first line\n"
              "                     second line\n"
              "group:\n"
              "  --bb               a switch\n"
              "  --long-option-name PATH  past the column\n"
              "  --exactly-col PATHS  at the column\n");
}

TEST(CliOptions, HelpStopsParsing)
{
    Targets t;
    OptionTable table = t.table();
    testing::internal::CaptureStdout();
    EXPECT_FALSE(parseArgs(table, {"--name", "x", "-h", "--count", "9"}));
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.rfind("usage: prog [options]\n", 0), 0u) << out;
    EXPECT_EQ(t.name, "x");
    EXPECT_EQ(t.count, 5u);
}

} // namespace
} // namespace cli
} // namespace dramctrl
