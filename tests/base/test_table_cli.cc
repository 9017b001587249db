/**
 * @file
 * Unit tests for the table/CSV emitters and the CLI flag parser.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "base/cli.hh"
#include "base/table.hh"

namespace mmr
{
namespace
{

TEST(Table, RendersAlignedAscii)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("| name  | value |"), std::string::npos);
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(out.find("+-------+-------+"), std::string::npos);
}

TEST(Table, CsvBlockIsMachineReadable)
{
    Table t({"a", "b", "c"});
    t.addRow({"1", "2", "3"});
    std::ostringstream oss;
    t.printCsv(oss, "my-series");
    EXPECT_EQ(oss.str(), "# begin-csv my-series\n"
                         "a,b,c\n"
                         "1,2,3\n"
                         "# end-csv\n");
}

TEST(Table, CellAccessAndCounts)
{
    Table t({"x"});
    t.addRow({"7"});
    EXPECT_EQ(t.numRows(), 1u);
    EXPECT_EQ(t.numCols(), 1u);
    EXPECT_EQ(t.cell(0, 0), "7");
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(TableDeath, RowWidthMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Cli, ParsesEqualsAndSpaceForms)
{
    Cli cli;
    cli.flag("load", "0.5", "offered load");
    cli.flag("sched", "biased", "scheduler");
    const char *argv[] = {"prog", "--load=0.9", "--sched", "fixed"};
    ASSERT_TRUE(cli.parse(4, const_cast<char **>(argv)));
    EXPECT_DOUBLE_EQ(cli.real("load"), 0.9);
    EXPECT_EQ(cli.str("sched"), "fixed");
}

TEST(Cli, DefaultsSurviveWhenUnset)
{
    Cli cli;
    cli.flag("n", "42", "count");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, const_cast<char **>(argv)));
    EXPECT_EQ(cli.integer("n"), 42);
}

TEST(Cli, PositionalArguments)
{
    Cli cli;
    cli.flag("x", "1", "x");
    const char *argv[] = {"prog", "pos1", "--x=2", "pos2"};
    ASSERT_TRUE(cli.parse(4, const_cast<char **>(argv)));
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "pos1");
    EXPECT_EQ(cli.positional()[1], "pos2");
}

TEST(Cli, BooleanParsing)
{
    Cli cli;
    cli.flag("flag", "false", "a boolean");
    const char *argv[] = {"prog", "--flag=yes"};
    ASSERT_TRUE(cli.parse(2, const_cast<char **>(argv)));
    EXPECT_TRUE(cli.boolean("flag"));
}

TEST(Cli, ListSplitsOnCommas)
{
    Cli cli;
    cli.flag("loads", "0.1,0.2,0.3", "load list");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, const_cast<char **>(argv)));
    const auto parts = cli.list("loads");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "0.1");
    EXPECT_EQ(parts[2], "0.3");
}

TEST(Cli, UnknownFlagIsFatal)
{
    Cli cli;
    cli.flag("known", "1", "known flag");
    const char *argv[] = {"prog", "--unknown=3"};
    EXPECT_THROW(cli.parse(2, const_cast<char **>(argv)),
                 std::runtime_error);
}

TEST(Cli, MissingValueIsFatal)
{
    Cli cli;
    cli.flag("x", "1", "x");
    const char *argv[] = {"prog", "--x"};
    EXPECT_THROW(cli.parse(2, const_cast<char **>(argv)),
                 std::runtime_error);
}

TEST(Cli, BadIntegerIsFatal)
{
    Cli cli;
    cli.flag("n", "1", "n");
    const char *argv[] = {"prog", "--n=abc"};
    ASSERT_TRUE(cli.parse(2, const_cast<char **>(argv)));
    EXPECT_THROW(cli.integer("n"), std::runtime_error);
}

TEST(Cli, RealsRejectNonFiniteAndJunk)
{
    Cli cli;
    cli.flag("load", "0.5", "load");
    cli.flag("loads", "0.1,nan", "loads");
    const char *argv[] = {"prog", "--load=nan"};
    ASSERT_TRUE(cli.parse(2, const_cast<char **>(argv)));
    EXPECT_THROW(cli.real("load"), std::runtime_error);
    EXPECT_THROW(cli.reals("loads"), std::runtime_error);
    for (const char *bad : {"inf", "-inf", "1e999", "0.5x", "", " "})
        EXPECT_THROW(parseReal(bad, "x"), std::runtime_error) << bad;
    EXPECT_DOUBLE_EQ(parseReal("-2.5", "x"), -2.5);
    EXPECT_THROW(parseReal("2", "x", 0.0, 1.0), std::runtime_error);
}

TEST(Cli, CountsAreWholeAndFitTheirBound)
{
    EXPECT_EQ(parseCount("4000", "x"), 4000u);
    EXPECT_EQ(parseCount("4e3", "x"), 4000u);
    EXPECT_EQ(parseCount("4294967295", "x", 4294967295u), 4294967295u);
    for (const char *bad : {"-5", "1.5", "1e30", "nan", "18446744073709551616"})
        EXPECT_THROW(parseCount(bad, "x"), std::runtime_error) << bad;
    EXPECT_THROW(parseCount("4294967296", "x", 4294967295u),
                 std::runtime_error);
}

TEST(Cli, HelpReturnsFalse)
{
    Cli cli;
    cli.flag("x", "1", "x");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(cli.parse(2, const_cast<char **>(argv)));
}

} // namespace
} // namespace mmr
