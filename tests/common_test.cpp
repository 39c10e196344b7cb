#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strutil.hpp"
#include "common/table.hpp"

namespace glimpse {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++same;
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(RngTest, IndexRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(RngTest, UniformRealInHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mean(xs), 5.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(13);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, WeightedIndexRejectsNegative) {
  Rng rng(13);
  std::vector<double> w = {1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(w), std::invalid_argument);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(13);
  std::vector<double> w = {0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.weighted_index(w));
  EXPECT_GT(seen.size(), 1u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  auto s = rng.sample_without_replacement(50, 20);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (auto v : s) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementFullPermutation) {
  Rng rng(17);
  auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementRejectsOversample) {
  Rng rng(17);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng root(5);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++same;
  EXPECT_LT(same, 2);
}

TEST(HashTest, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(HashTest, HashCombineSensitiveToOrder) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2), hash_combine(hash_combine(0, 2), 1));
}

// ---------- stats ----------

TEST(StatsTest, MeanVarianceStddev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(StatsTest, MedianAndPercentile) {
  std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
}

TEST(StatsTest, GeomeanMatchesClosedForm) {
  std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(StatsTest, GeomeanRejectsNonPositive) {
  std::vector<double> xs = {1.0, 0.0};
  EXPECT_THROW(geomean(xs), CheckError);
}

TEST(StatsTest, KendallTauExtremes) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> inc = {10.0, 20.0, 30.0, 40.0};
  std::vector<double> dec = {40.0, 30.0, 20.0, 10.0};
  EXPECT_DOUBLE_EQ(kendall_tau(xs, inc), 1.0);
  EXPECT_DOUBLE_EQ(kendall_tau(xs, dec), -1.0);
}

// ---------- strutil ----------

TEST(StrUtilTest, FormatBasics) {
  EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strformat("%.2f", 1.005), "1.00");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(StrUtilTest, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StrUtilTest, TrimAndJoinAndStartsWith) {
  EXPECT_EQ(join({"a", "b"}, "+"), "a+b");
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
}

TEST(StrUtilTest, ParseNumberAcceptsOnlyWholeTokens) {
  int i = 7;
  EXPECT_TRUE(parse_number("42", i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(parse_number("-3", i));
  EXPECT_EQ(i, -3);
  for (const char* bad : {"", "abc", "4x", "x4", " 4", "4 ", "+4", "0x10",
                          "99999999999"}) {
    i = 7;
    EXPECT_FALSE(parse_number(bad, i)) << bad;
    EXPECT_EQ(i, 7) << bad;  // untouched on failure
  }
  std::size_t n = 0;
  EXPECT_FALSE(parse_number("-1", n));  // no wrap-around for unsigned
  EXPECT_TRUE(parse_number("18446744073709551615", n));
  double d = 0.0;
  EXPECT_TRUE(parse_number("2.5e1", d));
  EXPECT_DOUBLE_EQ(d, 25.0);
  for (const char* bad : {"abc", "1.5s", "inf", "nan", "1e999"})
    EXPECT_FALSE(parse_number(bad, d)) << bad;
}

TEST(StrUtilTest, ParseHex64ReadsWhatHex64Writes) {
  for (std::uint64_t v : {0ULL, 1ULL, 0xabcdefULL, 0x0123456789abcdefULL, ~0ULL}) {
    std::uint64_t out = 7;
    EXPECT_TRUE(parse_hex64(hex64(v), out)) << v;
    EXPECT_EQ(out, v);
  }
  std::uint64_t out = 7;
  EXPECT_TRUE(parse_hex64("f", out));  // the padding is optional
  EXPECT_EQ(out, 15u);
  for (const char* bad : {"", "0123456789abcdef0", "ABCDEF", "aBc", "12g4", " 1", "-1",
                          "0x1"}) {
    out = 7;
    EXPECT_FALSE(parse_hex64(bad, out)) << bad;
    EXPECT_EQ(out, 7u) << bad;  // untouched on failure
  }
}

// ---------- logging / CHECK ----------

TEST(LoggingTest, CheckThrowsWithMessage) {
  try {
    GLIMPSE_CHECK(1 == 2) << "context " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(LoggingTest, CheckPassesSilently) {
  EXPECT_NO_THROW(GLIMPSE_CHECK(true) << "never evaluated");
}

// ---------- table ----------

TEST(TableTest, AlignsColumns) {
  TextTable t({"name", "v"});
  t.add("aa", "1");
  t.add("b", "22");
  std::string s = t.to_string();
  EXPECT_NE(s.find("name | v"), std::string::npos);
  EXPECT_NE(s.find("aa   | 1"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, ShortRowsRenderEmptyCells) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.to_string());
}

}  // namespace
}  // namespace glimpse
