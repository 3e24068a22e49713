#include <gtest/gtest.h>

#include <sstream>

#include "common/bit_math.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table_printer.h"

namespace qta {
namespace {

TEST(BitMath, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(BitMath, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(1024), 10u);
  EXPECT_EQ(log2_ceil(1025), 11u);
}

TEST(BitMath, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
}

TEST(BitMath, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(BitMath, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(BitMath, BitsExtraction) {
  EXPECT_EQ(bits(0b110101, 0, 3), 0b101u);
  EXPECT_EQ(bits(0b110101, 3, 3), 0b110u);
  EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
}

// Property: for any v >= 1, 2^log2_ceil(v) >= v and 2^(log2_ceil(v)-1) < v.
TEST(BitMath, Log2CeilProperty) {
  for (std::uint64_t v = 1; v < 5000; ++v) {
    const unsigned k = log2_ceil(v);
    EXPECT_GE(std::uint64_t{1} << k, v);
    if (k > 0) {
      EXPECT_LT(std::uint64_t{1} << (k - 1), v);
    }
  }
}

TEST(RunningStats, Basics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> data{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(data, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(data, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(data, 50), 2.5);
}

TEST(Ema, SeedsWithFirstValue) {
  Ema e(0.5);
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.add(10.0), 10.0);
  EXPECT_DOUBLE_EQ(e.add(0.0), 5.0);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   |"), std::string::npos);
  EXPECT_NE(out.find("| longer |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, Csv) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Format, Double) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
  EXPECT_EQ(format_double(0.1234, 2), "0.12");
}

TEST(Format, Rate) {
  EXPECT_EQ(format_rate(105500.0), "105.5K");
  EXPECT_EQ(format_rate(189e6), "189M");
  EXPECT_EQ(format_rate(1.5e9), "1.5G");
  EXPECT_EQ(format_rate(12.0), "12");
}

TEST(Format, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

TEST(Cli, ParsesForms) {
  // Note: a bare "--flag" followed by a non-flag token would consume the
  // token as its value, so boolean flags go last.
  const char* argv[] = {"prog", "--a=1", "--b", "2", "pos", "--flag"};
  CliFlags flags(6, argv);
  EXPECT_EQ(flags.get_int("a", 0), 1);
  EXPECT_EQ(flags.get_int("b", 0), 2);
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_EQ(flags.get_string("missing", "def"), "def");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(Cli, TracksUnused) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliFlags flags(3, argv);
  EXPECT_EQ(flags.get_int("used", 0), 1);
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, DoubleAndBoolValues) {
  const char* argv[] = {"prog", "--x=2.5", "--y=false", "--z=true"};
  CliFlags flags(4, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), 2.5);
  EXPECT_FALSE(flags.get_bool("y", true));
  EXPECT_TRUE(flags.get_bool("z", false));
}

TEST(CliDeath, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--port=abc", "--hot=8x", "--empty=",
                        "--rate=0.5s", "--neg=-3"};
  CliFlags flags(6, argv);
  EXPECT_DEATH(flags.get_int("port", 0), "whole decimal number");
  EXPECT_DEATH(flags.get_int("hot", 0), "whole decimal number");
  EXPECT_DEATH(flags.get_int("empty", 0), "whole decimal number");
  EXPECT_DEATH(flags.get_double("rate", 0.0), "needs a number");
  EXPECT_DEATH(flags.get_double("empty", 0.0), "needs a number");
  EXPECT_EQ(flags.get_int("neg", 0), -3);  // a sign is not trailing junk
}

}  // namespace
}  // namespace qta
