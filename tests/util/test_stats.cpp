// Tests for RunningStats, quantiles and number formatting.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace fbc {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleObservation) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.sum(), 5.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  // Values 2, 4, 4, 4, 5, 5, 7, 9: mean 5, population var 4,
  // sample var 32/7.
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_double(-10.0, 10.0);
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty lhs adopts rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, MergeMatchesSequentialUnderFuzzedSplits) {
  // Partition one stream into a random number of shards at random
  // boundaries, merge the shards in order, and require the result to be
  // indistinguishable from the single-pass accumulator.
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const int n = static_cast<int>(rng.uniform_u64(20, 500));
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      values.push_back(rng.uniform_double(-1e6, 1e6));

    RunningStats whole;
    for (double v : values) whole.add(v);

    const int shards = static_cast<int>(rng.uniform_u64(1, 8));
    RunningStats merged;
    std::size_t at = 0;
    for (int s = 0; s < shards; ++s) {
      RunningStats shard;
      const std::size_t end =
          s + 1 == shards
              ? values.size()
              : std::min(values.size(),
                         at + static_cast<std::size_t>(rng.uniform_u64(
                                  0, static_cast<std::uint64_t>(n))));
      for (; at < end; ++at) shard.add(values[at]);
      merged.merge(shard);
    }
    ASSERT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-6);
    EXPECT_NEAR(merged.variance(), whole.variance(),
                1e-6 * std::max(1.0, whole.variance()));
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
  }
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  RunningStats small, large;
  Rng rng(2);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform_double());
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform_double());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Quantile, MedianAndExtremes) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 7.5);
}

TEST(Quantile, ClampsQ) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.5), 2.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 7.0);
}

TEST(Quantile, EmptyReturnsNaN) {
  // Total function: an empty sample must NOT be UB (the old
  // assert-guarded version dereferenced sorted.front() under NDEBUG).
  EXPECT_TRUE(std::isnan(quantile(std::vector<double>{}, 0.5)));
  EXPECT_TRUE(std::isnan(quantile(std::vector<double>{}, 0.0)));
  EXPECT_TRUE(std::isnan(quantile(std::vector<double>{}, 1.0)));
}

TEST(Quantile, TwoElements) {
  const std::vector<double> v{10.0, 20.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 20.0);
}

TEST(QuantileRank, Convention) {
  EXPECT_DOUBLE_EQ(quantile_rank(0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile_rank(1, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(quantile_rank(101, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(quantile_rank(100, 0.95), 94.05);
  EXPECT_DOUBLE_EQ(quantile_rank(5, -1.0), 0.0);  // q clamped
  EXPECT_DOUBLE_EQ(quantile_rank(5, 2.0), 4.0);
}

TEST(Quantile, CrossImplementationRegression) {
  // Pins the project-wide percentile semantics against the nearest-rank
  // variant fbcload used to carry: for 1..100, linear interpolation gives
  // p95 = 95.05 where nearest-rank reported 96. If this test starts
  // failing, someone reintroduced a second percentile convention.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(quantile(v, 0.95), 95.05);
  EXPECT_DOUBLE_EQ(quantile(v, 0.50), 50.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99.01);
  EXPECT_NE(quantile(v, 0.95), 96.0);  // the old nearest-rank answer
}

TEST(MeanOf, Basics) {
  EXPECT_DOUBLE_EQ(mean_of(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
}

TEST(FormatDouble, TrimsAndRounds) {
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(13.0), "13");
  EXPECT_EQ(format_double(0.123456, 3), "0.123");
  EXPECT_EQ(format_double(1234567.0, 3), "1.23e+06");
}

}  // namespace
}  // namespace fbc
