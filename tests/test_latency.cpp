// Tests for bench/latency.hpp — the shared quantile module every bench's
// latency fields come from.  The golden values below are hand-computed from
// the ceil nearest-rank definition (rank = ⌈p·n⌉, value = sorted[rank−1])
// and the R-7 interpolation formula; the floor-rank regression cases are
// exactly the small-sample tails the old bench_serve percentile()
// under-reported.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "bench/latency.hpp"

namespace {

using dknn::bench::LatencySummary;
using dknn::bench::percentile_interpolated;
using dknn::bench::percentile_nearest_rank;
using dknn::bench::summarize_latencies;

TEST(Latency, SingleSampleEveryPercentileIsThatSample) {
  const std::vector<double> one{7.25};
  for (const double p : {0.0, 0.01, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(percentile_nearest_rank(one, p), 7.25) << "p=" << p;
    EXPECT_EQ(percentile_interpolated(one, p), 7.25) << "p=" << p;
  }
}

TEST(Latency, ConstantDistributionIsFlat) {
  const std::vector<double> flat(64, 3.5);
  for (const double p : {0.0, 0.5, 0.95, 0.999, 1.0}) {
    EXPECT_EQ(percentile_nearest_rank(flat, p), 3.5) << "p=" << p;
    EXPECT_EQ(percentile_interpolated(flat, p), 3.5) << "p=" << p;
  }
}

// The bug the shared module exists to fix: with n < 1/(1−p) the floor
// nearest-rank (`sorted[size_t(p * (n−1))]`) reports an interior sample as
// the tail.  Ceil nearest-rank must return the maximum.
TEST(Latency, SmallSampleTailIsTheMaximumNotPNinety) {
  // n = 10: old floor rank for p99 was size_t(0.99 * 9) = 8 → the 9th
  // value (p90, 9.0 here).  Correct nearest-rank is ⌈9.9⌉ = 10 → 10.0.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile_nearest_rank(ten, 0.99), 10.0);
  EXPECT_EQ(percentile_nearest_rank(ten, 0.999), 10.0);
  EXPECT_EQ(percentile_nearest_rank(ten, 0.95), 10.0);  // ⌈9.5⌉ = 10
  EXPECT_EQ(percentile_nearest_rank(ten, 0.90), 9.0);   // ⌈9.0⌉ = 9

  // n = 100: p999 must be the maximum (old floor rank gave the 99th).
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile_nearest_rank(hundred, 0.999), 100.0);
  EXPECT_EQ(percentile_nearest_rank(hundred, 0.99), 99.0);   // ⌈99⌉ = 99
  EXPECT_EQ(percentile_nearest_rank(hundred, 0.95), 95.0);
  EXPECT_EQ(percentile_nearest_rank(hundred, 0.50), 50.0);
}

TEST(Latency, ExactNearestRankGoldenValues) {
  // Sorted 1..8, assorted p: rank = ⌈8p⌉.
  std::vector<double> eight;
  for (int i = 1; i <= 8; ++i) eight.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile_nearest_rank(eight, 0.0), 1.0);    // clamp to rank 1
  EXPECT_EQ(percentile_nearest_rank(eight, 0.125), 1.0);  // ⌈1⌉ = 1
  EXPECT_EQ(percentile_nearest_rank(eight, 0.126), 2.0);  // ⌈1.008⌉ = 2
  EXPECT_EQ(percentile_nearest_rank(eight, 0.25), 2.0);
  EXPECT_EQ(percentile_nearest_rank(eight, 0.5), 4.0);
  EXPECT_EQ(percentile_nearest_rank(eight, 0.51), 5.0);   // ⌈4.08⌉ = 5
  EXPECT_EQ(percentile_nearest_rank(eight, 1.0), 8.0);
}

TEST(Latency, BimodalDistribution) {
  // Five fast (1 ms), five slow (100 ms).  Nearest-rank p50 is an observed
  // sample — the 5th value, 1 ms; interpolated p50 is the midpoint.
  std::vector<double> bimodal{1, 1, 1, 1, 1, 100, 100, 100, 100, 100};
  EXPECT_EQ(percentile_nearest_rank(bimodal, 0.50), 1.0);
  EXPECT_EQ(percentile_nearest_rank(bimodal, 0.51), 100.0);  // ⌈5.1⌉ = 6
  EXPECT_EQ(percentile_nearest_rank(bimodal, 0.99), 100.0);
  EXPECT_DOUBLE_EQ(percentile_interpolated(bimodal, 0.50), 50.5);  // h = 4.5
}

TEST(Latency, InterpolatedGoldenValues) {
  // Sorted {10, 20, 30, 40}: h = 3p.
  const std::vector<double> four{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_interpolated(four, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_interpolated(four, 0.5), 25.0);   // h = 1.5
  EXPECT_DOUBLE_EQ(percentile_interpolated(four, 0.75), 32.5);  // h = 2.25
  EXPECT_DOUBLE_EQ(percentile_interpolated(four, 1.0), 40.0);
}

TEST(Latency, NearestRankNeverBelowTheOldFloorRankEstimator) {
  // The monotone-fix property: the replaced bench_serve estimator indexed
  // sorted[⌊p·(n−1)⌋], and ⌈p·n⌉ − 1 ≥ ⌊p·(n−1)⌋ for every p in [0, 1]
  // (⌈pn⌉ ≤ ⌊pn − p⌋ would force pn ≤ pn − p), so switching an SLO field
  // to ceil nearest-rank can only raise it — re-emitted tail numbers move
  // up or stay, never down.  Checked over an adversarial heavy-tailed
  // sample at many p, including ones where p·n is integral (there the
  // nearest-rank value sits *below* the R-7 interpolation, which is why
  // the comparison is against the old estimator, not the interpolated one).
  std::vector<double> tail;
  for (int i = 0; i < 97; ++i) tail.push_back(0.1 * i);
  tail.push_back(50.0);
  tail.push_back(500.0);
  tail.push_back(5000.0);  // n = 100
  const auto old_floor_rank = [&](double p) {
    return tail[static_cast<std::size_t>(p * static_cast<double>(tail.size() - 1))];
  };
  for (const double p : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 1.0}) {
    EXPECT_GE(percentile_nearest_rank(tail, p), old_floor_rank(p)) << "p=" << p;
  }
  // And at the small-n tail the gap is the whole point: p99 of 10 samples.
  const std::vector<double> ten{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000};
  EXPECT_EQ(percentile_nearest_rank(ten, 0.99), 1000.0);
  EXPECT_EQ(ten[static_cast<std::size_t>(0.99 * 9.0)], 9.0);  // what the bug reported
}

TEST(Latency, SummaryFillsEveryFieldFromTheSharedEstimator) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(static_cast<double>(i));  // unsorted input
  const LatencySummary s = summarize_latencies(samples);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min_ms, 1.0);
  EXPECT_EQ(s.max_ms, 1000.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 500.5);
  EXPECT_EQ(s.p50_ms, 500.0);
  EXPECT_EQ(s.p95_ms, 950.0);
  EXPECT_EQ(s.p99_ms, 990.0);
  EXPECT_EQ(s.p999_ms, 999.0);
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end()));
}

TEST(Latency, EmptyInputIsAllZero) {
  std::vector<double> empty;
  const LatencySummary s = summarize_latencies(empty);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p999_ms, 0.0);
  EXPECT_EQ(percentile_nearest_rank(empty, 0.99), 0.0);
  EXPECT_EQ(percentile_interpolated(empty, 0.99), 0.0);
}

TEST(Latency, NanPercentileIsNan) {
  // A NaN p passes both range checks; it must not reach the float-to-index
  // cast (undefined behaviour), so it yields NaN on any non-empty sample.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> one = {7.25};
  const std::vector<double> four = {10.0, 20.0, 30.0, 40.0};
  EXPECT_TRUE(std::isnan(percentile_nearest_rank(one, nan)));
  EXPECT_TRUE(std::isnan(percentile_nearest_rank(four, nan)));
  EXPECT_TRUE(std::isnan(percentile_interpolated(one, nan)));
  EXPECT_TRUE(std::isnan(percentile_interpolated(four, nan)));
}

}  // namespace
