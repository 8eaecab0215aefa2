#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/flags.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table.h"

namespace ukc {
namespace {

// --- RunningStats ---

TEST(RunningStatsTest, Empty) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(4.0);
  EXPECT_EQ(stats.count(), 1);
  EXPECT_DOUBLE_EQ(stats.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 4.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 4.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_NEAR(stats.Variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
}

TEST(RunningStatsTest, StdError) {
  RunningStats stats;
  for (int i = 0; i < 100; ++i) stats.Add(static_cast<double>(i % 2));
  EXPECT_NEAR(stats.StdError(), stats.StdDev() / 10.0, 1e-12);
}

// --- KahanSum ---

TEST(KahanSumTest, CompensatesSmallTerms) {
  KahanSum sum;
  sum.Add(1.0);
  for (int i = 0; i < 1000000; ++i) sum.Add(1e-16);
  EXPECT_NEAR(sum.Total(), 1.0 + 1e-10, 1e-13);
}

TEST(KahanSumTest, MatchesExactForIntegers) {
  KahanSum sum;
  for (int i = 1; i <= 100; ++i) sum.Add(i);
  EXPECT_DOUBLE_EQ(sum.Total(), 5050.0);
}

// --- Strings ---

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrFormat("%s", "plain"), "plain");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"a"}, ", "), "a");
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("xy", ','), (std::vector<std::string>{"xy"}));
}

TEST(StringsTest, StrTrim) {
  EXPECT_EQ(StrTrim("  abc \t\n"), "abc");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("inner space kept"), "inner space kept");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("ukc-dataset", "ukc"));
  EXPECT_FALSE(StartsWith("ukc", "ukc-dataset"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

// --- TablePrinter ---

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22.5"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.5"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, FormatsValues) {
  EXPECT_EQ(TablePrinter::FormatCell(3), "3");
  EXPECT_EQ(TablePrinter::FormatCell(2.5), "2.5");
  EXPECT_EQ(TablePrinter::FormatCell(0.33333333), "0.3333");
  EXPECT_EQ(TablePrinter::FormatCell("text"), "text");
}

TEST(TablePrinterTest, AddRowValues) {
  TablePrinter table({"a", "b", "c"});
  table.AddRowValues("row", 7, 0.25);
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("row"), std::string::npos);
  EXPECT_NE(out.find(" 7"), std::string::npos);
  EXPECT_NE(out.find("0.25"), std::string::npos);
}

TEST(TablePrinterDeathTest, WrongArityAborts) {
  TablePrinter table({"only"});
  EXPECT_DEATH(table.AddRow({"a", "b"}), "CHECK failed");
}

// --- FlagParser ---

TEST(FlagParserTest, ParsesAllTypes) {
  FlagParser flags;
  int64_t n = 10;
  double eps = 0.5;
  bool verbose = false;
  std::string name = "default";
  flags.AddInt("n", &n, "count");
  flags.AddDouble("eps", &eps, "tolerance");
  flags.AddBool("verbose", &verbose, "chatty");
  flags.AddString("name", &name, "label");
  const char* argv[] = {"prog", "--n=42", "--eps", "0.25", "--verbose",
                        "--name=bench"};
  ASSERT_TRUE(flags.Parse(6, argv).ok());
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(eps, 0.25);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "bench");
}

TEST(FlagParserTest, DefaultsSurviveWhenAbsent) {
  FlagParser flags;
  int64_t n = 10;
  flags.AddInt("n", &n, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(n, 10);
}

TEST(FlagParserTest, UnknownFlagFails) {
  FlagParser flags;
  const char* argv[] = {"prog", "--mystery=1"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, MalformedIntFails) {
  FlagParser flags;
  int64_t n = 0;
  flags.AddInt("n", &n, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, MissingValueFails) {
  FlagParser flags;
  int64_t n = 0;
  flags.AddInt("n", &n, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, BoolExplicitFalse) {
  FlagParser flags;
  bool flag = true;
  flags.AddBool("flag", &flag, "f");
  const char* argv[] = {"prog", "--flag=false"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_FALSE(flag);
}

TEST(FlagParserTest, CollectsPositional) {
  FlagParser flags;
  const char* argv[] = {"prog", "input.txt", "more"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.txt", "more"}));
}

TEST(FlagParserTest, UsageListsFlags) {
  FlagParser flags;
  int64_t n = 3;
  flags.AddInt("n", &n, "number of points");
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("number of points"), std::string::npos);
}

// --- Stopwatch ---

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch stopwatch;
  EXPECT_GE(stopwatch.ElapsedSeconds(), 0.0);
  EXPECT_GE(stopwatch.ElapsedMillis(), 0.0);
}

TEST(StopwatchTest, ResetRestarts) {
  Stopwatch stopwatch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double before = stopwatch.ElapsedSeconds();
  stopwatch.Reset();
  EXPECT_LE(stopwatch.ElapsedSeconds(), before + 1.0);
}

}  // namespace
}  // namespace ukc
