/**
 * @file
 * Unit tests for CSV output, ASCII tables, and CLI parsing.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <thread>

#include "base/cli.hh"
#include "base/csv.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"

namespace
{

using namespace tdfe;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Csv, WritesHeaderAndRows)
{
    const std::string path = ::testing::TempDir() + "csv_test.csv";
    {
        CsvWriter w(path, {"a", "b"});
        w.writeRow({1.0, 2.5});
        w.writeRowText({"x", "y"});
        EXPECT_EQ(w.rowCount(), 2u);
    }
    const std::string text = slurp(path);
    EXPECT_NE(text.find("a,b\n"), std::string::npos);
    EXPECT_NE(text.find("1,2.5\n"), std::string::npos);
    EXPECT_NE(text.find("x,y\n"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CsvDeathTest, ColumnMismatchPanics)
{
    const std::string path =
        ::testing::TempDir() + "csv_death_test.csv";
    CsvWriter w(path, {"a", "b"});
    EXPECT_DEATH(w.writeRow({1.0}), "expected 2 columns");
    std::remove(path.c_str());
}

TEST(Table, RendersAlignedColumns)
{
    AsciiTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2.5"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 2.5   |"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(AsciiTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(AsciiTable::pct(0.1234, 1), "12.3%");
    EXPECT_EQ(AsciiTable::pct(-0.05), "-5.00%");
}

TEST(TableDeathTest, RowWidthMismatchPanics)
{
    AsciiTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "expected 2 cells");
}

TEST(Cli, ParsesTypedOptions)
{
    ArgParser p("test");
    p.addInt("count", 3, "a count");
    p.addDouble("ratio", 0.5, "a ratio");
    p.addString("name", "x", "a name");
    p.addFlag("verbose", "a flag");

    const char *argv[] = {"prog", "--count", "7", "--ratio=0.25",
                          "--verbose", "--name", "hello"};
    p.parse(7, const_cast<char **>(argv));

    EXPECT_EQ(p.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.25);
    EXPECT_EQ(p.getString("name"), "hello");
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(Cli, DefaultsSurviveWhenUnset)
{
    ArgParser p("test");
    p.addInt("count", 3, "a count");
    p.addFlag("verbose", "a flag");
    const char *argv[] = {"prog"};
    p.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(p.getInt("count"), 3);
    EXPECT_FALSE(p.getFlag("verbose"));
}

TEST(Cli, ListParsing)
{
    const auto ints = ArgParser::parseIntList("30,60,90");
    ASSERT_EQ(ints.size(), 3u);
    EXPECT_EQ(ints[1], 60);

    const auto doubles = ArgParser::parseDoubleList("0.1,0.5");
    ASSERT_EQ(doubles.size(), 2u);
    EXPECT_DOUBLE_EQ(doubles[0], 0.1);

    EXPECT_TRUE(ArgParser::parseIntList("").empty());
}

TEST(CliDeathTest, UnknownOptionIsFatal)
{
    ArgParser p("test");
    const char *argv[] = {"prog", "--nope", "1"};
    EXPECT_DEATH(p.parse(3, const_cast<char **>(argv)),
                 "unknown option");
}

TEST(CliDeathTest, MissingValueIsFatal)
{
    ArgParser p("test");
    p.addInt("count", 3, "a count");
    const char *argv[] = {"prog", "--count"};
    EXPECT_DEATH(p.parse(2, const_cast<char **>(argv)),
                 "needs a value");
}

TEST(ThreadCount, ParserAcceptsOnlyWholeValuesInRange)
{
    EXPECT_EQ(parseThreadCount("1"), 1);
    EXPECT_EQ(parseThreadCount("4"), 4);
    EXPECT_EQ(parseThreadCount("1024"), maxThreadCount);
    for (const char *bad :
         {"", "0", "-1", "4x", "x4", "4.0", "4 ", "1025", "2147483648",
          "99999999999999999999999", "-99999999999999999999999"})
        EXPECT_EQ(parseThreadCount(bad), 0) << "'" << bad << "'";
    EXPECT_EQ(parseThreadCount(nullptr), 0);
}

TEST(ThreadCount, EnvironmentFallsBackToHardwareWhenInvalid)
{
    // Only the environment variable changes here: no pool is built
    // or resized from these values.
    const char *old = std::getenv("TDFE_NUM_THREADS");
    const std::string saved = old ? old : "";
    const int hardware = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));

    ::setenv("TDFE_NUM_THREADS", "3", 1);
    EXPECT_EQ(configuredThreadCount(), 3);
    for (const char *bad : {"4x", "0", "-2", "1025", "99999999999"}) {
        ::setenv("TDFE_NUM_THREADS", bad, 1);
        EXPECT_EQ(configuredThreadCount(), hardware) << bad;
    }
    ::unsetenv("TDFE_NUM_THREADS");
    EXPECT_EQ(configuredThreadCount(), hardware);

    if (old)
        ::setenv("TDFE_NUM_THREADS", saved.c_str(), 1);
}

TEST(ThreadCount, FlagIsStrippedFromArgv)
{
    const char *args[] = {"prog", "--threads=1", "--other", nullptr};
    char **argv = const_cast<char **>(args);
    int argc = 3;
    EXPECT_EQ(applyThreadsFlag(argc, argv), 1);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--other");
    EXPECT_EQ(argv[2], nullptr);
}

TEST(ThreadCountDeathTest, InvalidCliValuesAreFatal)
{
    // Both CLI paths reject before any pool is resized.
    for (const char *bad : {"4x", "-1", "1025", "4294967297"}) {
        const std::string flag = std::string("--threads=") + bad;
        const char *args[] = {"prog", flag.c_str(), nullptr};
        int argc = 2;
        EXPECT_EXIT(applyThreadsFlag(argc, const_cast<char **>(args)),
                    ::testing::ExitedWithCode(1), "invalid --threads")
            << bad;

        ArgParser p("test");
        addThreadsOption(p);
        p.parse(2, const_cast<char **>(args));
        EXPECT_EXIT(applyThreadsOption(p),
                    ::testing::ExitedWithCode(1), "invalid --threads")
            << bad;
    }
}

} // namespace
