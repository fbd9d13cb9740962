#include "src/core/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace lmb {
namespace {

TEST(SampleTest, EmptySampleThrowsOnStatistics) {
  Sample s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.max(), std::logic_error);
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.median(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(SampleTest, SingleValue) {
  Sample s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

TEST(SampleTest, BasicMoments) {
  Sample s({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sample stddev with n-1: sum sq dev = 32, 32/7.
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SampleTest, MedianEvenAndOdd) {
  Sample odd({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.median(), 2.0);
  Sample even({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

TEST(SampleTest, PercentileInterpolates) {
  Sample s({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);
}

TEST(SampleTest, PercentileRangeChecked) {
  Sample s({1.0});
  EXPECT_THROW(s.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.percentile(100.1), std::invalid_argument);
}

TEST(SampleTest, TailPercentilesAtSmallN) {
  // p99/p999 on small samples interpolate inside the top gap instead of
  // snapping to max — the regime every quick-mode load run lives in.
  Sample s;
  for (int i = 1; i <= 10; ++i) {
    s.add(static_cast<double>(i));  // 1..10
  }
  // rank = p/100 * (n-1): p99 -> 8.91, p999 -> 8.991.
  EXPECT_NEAR(s.percentile(99), 9.91, 1e-9);
  EXPECT_NEAR(s.percentile(99.9), 9.991, 1e-9);
  EXPECT_LE(s.percentile(99), s.percentile(99.9));
  EXPECT_LE(s.percentile(99.9), s.max());
}

TEST(SampleTest, TailPercentilesSingleElement) {
  Sample s({7.0});
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.9), 7.0);
}

TEST(SampleTest, TailPercentilesAreMonotoneUnderOutliers) {
  // One huge outlier: p999 must see it before p99 does, and ordering
  // p50 <= p95 <= p99 <= p999 must hold regardless.
  Sample s;
  for (int i = 0; i < 999; ++i) {
    s.add(100.0);
  }
  s.add(50000.0);
  double p50 = s.percentile(50);
  double p95 = s.percentile(95);
  double p99 = s.percentile(99);
  double p999 = s.percentile(99.9);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p999);
  EXPECT_GT(p999, 100.0) << "p999 must feel the 1-in-1000 outlier";
  EXPECT_DOUBLE_EQ(p50, 100.0);
}

TEST(SampleTest, AddInvalidatesSortCache) {
  Sample s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

// Regression: stddev must be exactly 0 (not NaN/inf from a 0/0 or 1/0) for
// degenerate sample sizes, so serialized output stays finite.
TEST(SampleTest, StddevOfDegenerateSamplesIsZeroNotNan) {
  Sample empty;
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
  EXPECT_TRUE(std::isfinite(empty.stddev()));

  Sample one;
  one.add(123.456);
  EXPECT_DOUBLE_EQ(one.stddev(), 0.0);
  EXPECT_TRUE(std::isfinite(one.stddev()));
}

TEST(SampleTest, CiHalfWidthSmallSamples) {
  // n < 2: no spread information, interval collapses to 0.
  Sample one({42.0});
  EXPECT_DOUBLE_EQ(one.ci_half_width(), 0.0);

  // n = 2: stddev = sqrt(2), t(0.95, dof=1) = 12.706.
  Sample two({4.0, 6.0});
  EXPECT_NEAR(two.ci_half_width(0.95), 12.706 * std::sqrt(2.0) / std::sqrt(2.0), 1e-9);

  // Wider confidence => wider interval; t shrinks with n.
  Sample five({10.0, 11.0, 9.0, 10.5, 9.5});
  EXPECT_LT(five.ci_half_width(0.90), five.ci_half_width(0.95));
  EXPECT_LT(five.ci_half_width(0.95), five.ci_half_width(0.99));
  EXPECT_NEAR(five.ci_half_width(0.95), 2.776 * five.stddev() / std::sqrt(5.0), 1e-9);

  EXPECT_THROW(five.ci_half_width(0.5), std::invalid_argument);
}

TEST(SampleTest, CiHalfWidthLargeSampleUsesAsymptote) {
  Sample s;
  for (int i = 0; i < 100; ++i) {
    s.add(static_cast<double>(i % 7));
  }
  EXPECT_NEAR(s.ci_half_width(0.95), 1.960 * s.stddev() / 10.0, 1e-9);
}

// Property: for any data, min <= p25 <= median <= p75 <= max and the mean
// lies within [min, max].
class SamplePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SamplePropertyTest, OrderStatisticsAreOrdered) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> dist(-1000.0, 1000.0);
  Sample s;
  int n = 1 + GetParam() % 50;
  for (int i = 0; i < n; ++i) {
    s.add(dist(rng));
  }
  EXPECT_LE(s.min(), s.percentile(25));
  EXPECT_LE(s.percentile(25), s.median());
  EXPECT_LE(s.median(), s.percentile(75));
  EXPECT_LE(s.percentile(75), s.max());
  EXPECT_GE(s.mean(), s.min());
  EXPECT_LE(s.mean(), s.max());
  EXPECT_GE(s.stddev(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplePropertyTest, ::testing::Range(1, 25));

// The sorted cache is maintained incrementally: adds after a percentile call
// sort only the new suffix and merge it in.  Interleaving adds and order
// statistics in every pattern must agree with a freshly-sorted reference.
TEST(SampleTest, InterleavedAddsAndPercentilesMatchFreshSort) {
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> dist(-500.0, 500.0);
  Sample incremental;
  std::vector<double> raw;
  for (int round = 0; round < 20; ++round) {
    // Vary the batch size so the suffix-merge sees 1-element and many-element
    // tails, duplicates, and already-sorted runs.
    const int batch = 1 + (round * 7) % 13;
    for (int i = 0; i < batch; ++i) {
      double v = (round % 3 == 0) ? static_cast<double>(round) : dist(rng);
      incremental.add(v);
      raw.push_back(v);
    }
    Sample fresh(raw);  // sorts from scratch every time
    for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
      ASSERT_DOUBLE_EQ(incremental.percentile(p), fresh.percentile(p))
          << "round " << round << " p" << p;
    }
    ASSERT_DOUBLE_EQ(incremental.min(), fresh.min()) << "round " << round;
    ASSERT_DOUBLE_EQ(incremental.max(), fresh.max()) << "round " << round;
    ASSERT_DOUBLE_EQ(incremental.median(), fresh.median()) << "round " << round;
  }
}

TEST(SampleTest, MinMaxAfterPercentileStaysCorrectAcrossAdds) {
  Sample s;
  s.add(10.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.5);  // builds the sorted cache
  // These extend both ends of the range after the cache exists.
  s.add(1.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

}  // namespace
}  // namespace lmb
