// Tests for src/seq: quickselect and median-of-medians against
// std::nth_element (parameterized sweeps), top_ell, brute force, the
// scoring-policy routing table, the range-leaf kd-tree's counters and
// degenerate shapes, and the weighted median.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "data/generators.hpp"
#include "data/ids.hpp"
#include "data/key.hpp"
#include "rng/rng.hpp"
#include "seq/brute.hpp"
#include "seq/kdtree.hpp"
#include "seq/scoring_policy.hpp"
#include "seq/select.hpp"
#include "seq/weighted_median.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

// --- selection ------------------------------------------------------------------

std::uint64_t reference_nth(std::vector<std::uint64_t> values, std::size_t rank) {
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

class SelectSweep : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(SelectSweep, QuickselectMatchesNthElement) {
  const auto [n, dist] = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(dist) * 7 + n);
  std::vector<std::uint64_t> values;
  switch (dist) {
    case 0: values = uniform_u64(n, rng); break;
    case 1: values = duplicate_heavy_u64(n, std::max<std::size_t>(1, n / 10), rng); break;
    case 2: {  // sorted ascending
      values = uniform_u64(n, rng);
      std::sort(values.begin(), values.end());
      break;
    }
    case 3: {  // all equal
      values.assign(n, 42);
      break;
    }
  }
  for (std::size_t rank : {std::size_t{0}, n / 4, n / 2, n - 1}) {
    Rng qrng(7);
    EXPECT_EQ(quickselect(values, rank, qrng), reference_nth(values, rank))
        << "n=" << n << " dist=" << dist << " rank=" << rank;
    EXPECT_EQ(mom_select(values, rank), reference_nth(values, rank))
        << "n=" << n << " dist=" << dist << " rank=" << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SelectSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 10u, 100u, 1000u,
                                                              4096u),
                                            ::testing::Values(0, 1, 2, 3)));

TEST(Select, RankOutOfRangeThrows) {
  Rng rng(1);
  std::vector<std::uint64_t> v{1, 2, 3};
  EXPECT_THROW((void)quickselect(v, 3, rng), InvariantError);
  EXPECT_THROW((void)mom_select(v, 3), InvariantError);
}

TEST(Select, WorksOnKeys) {
  Rng rng(2);
  std::vector<Key> keys;
  for (int i = 0; i < 100; ++i) keys.push_back(Key{rng.below(10), rng.next_u64()});
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  Rng qrng(3);
  EXPECT_EQ(quickselect(keys, 37, qrng), sorted[37]);
  EXPECT_EQ(mom_select(keys, 37), sorted[37]);
}

// --- top_ell -----------------------------------------------------------------------

TEST(TopEll, MatchesSortPrefix) {
  Rng rng(10);
  for (std::size_t n : {0u, 1u, 5u, 100u, 1000u}) {
    auto values = uniform_u64(n, rng, 0, 500);  // force duplicates
    auto sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t ell : {std::size_t{0}, std::size_t{1}, n / 2, n, n + 10}) {
      auto got = top_ell_smallest(std::span<const std::uint64_t>(values), ell);
      std::vector<std::uint64_t> want(sorted.begin(),
                                      sorted.begin() + static_cast<std::ptrdiff_t>(
                                                           std::min(ell, sorted.size())));
      EXPECT_EQ(got, want) << "n=" << n << " ell=" << ell;
    }
  }
}

TEST(TopEll, ReturnsAscending) {
  Rng rng(11);
  auto values = uniform_u64(500, rng);
  auto got = top_ell_smallest(std::span<const std::uint64_t>(values), 50);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

// --- brute force ℓ-NN ----------------------------------------------------------------

TEST(Brute, ScalarMatchesManualScan) {
  Rng rng(20);
  auto values = uniform_u64(200, rng, 0, 1000);
  auto ids = assign_random_ids(values.size(), rng);
  const Value query = 500;
  auto got = brute_force_knn_scalar(values, ids, query, 10);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  // Every returned distance must be <= every excluded distance.
  std::vector<Key> all;
  for (std::size_t i = 0; i < values.size(); ++i) {
    all.push_back(Key{scalar_distance(values[i], query), ids[i]});
  }
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].key, all[i]);
}

TEST(Brute, EllLargerThanNReturnsAll) {
  Rng rng(21);
  auto values = uniform_u64(5, rng);
  auto ids = assign_random_ids(5, rng);
  EXPECT_EQ(brute_force_knn_scalar(values, ids, 0, 100).size(), 5u);
}

TEST(Brute, VectorMetricVariants) {
  Rng rng(22);
  auto points = uniform_points(100, 3, 10.0, rng);
  auto ids = assign_random_ids(points.size(), rng);
  const PointD query({0.0, 0.0, 0.0});
  // Euclidean and squared-Euclidean must return identical neighbor sets.
  auto euc = brute_force_knn(std::span<const PointD>(points), ids, query, EuclideanMetric{}, 7);
  auto sq = brute_force_knn(std::span<const PointD>(points), ids, query, SquaredEuclidean{}, 7);
  ASSERT_EQ(euc.size(), sq.size());
  for (std::size_t i = 0; i < euc.size(); ++i) EXPECT_EQ(euc[i].index, sq[i].index);
}

// --- scoring policy routing table -------------------------------------------

// Pins the recalibrated tree_pays_off against the heuristic it replaced
// (`dim ≤ 16 && n ≥ max(2048, 2^dim)`), cell by cell over an (n, dim)
// grid, so a future edit to the calibration table is a deliberate,
// visible diff here — routing changes cost, never answers (byte parity
// across brute/tree is fuzzed in tests/test_parity.cpp), but a silent
// routing regression would still cost real throughput.
TEST(ScoringPolicy, RecalibratedRoutingDecisionTable) {
  const auto old_rule = [](std::size_t n, std::size_t dim) {
    if (dim == 0 || dim > 16) return false;
    return n >= 2048 && n >= (std::size_t{1} << dim);
  };
  struct Cell {
    std::size_t n, dim;
    bool now;  ///< recalibrated decision (measured, BENCH_scenarios.json)
  };
  const Cell cells[] = {
      // Low-d: unchanged — tree from 2048 up, brute below.
      {1024, 2, false}, {2048, 2, true},  {40000, 2, true},
      {1024, 8, false}, {2048, 8, true},  {40000, 8, true}, {1u << 20, 8, true},
      // Mid-d moderate n: the band the old rule mis-routed to brute
      // (2^dim floor) — measured tree wins, both data shapes.
      {5000, 12, true}, {8192, 16, true}, {16384, 16, true}, {8192, 24, true},
      // Mid-d large n: uniform scans saturate; now brute.  The old rule
      // sent d = 16 shards at n ≥ 65536 into the tree at scan 1.0.
      {40000, 12, false}, {40000, 16, false}, {65536, 16, false}, {16384, 24, false},
      // High-d: brute everywhere, as before.
      {8192, 32, false}, {40000, 48, false}, {1u << 20, 64, false},
      // Degenerate inputs.
      {0, 8, false}, {40000, 0, false},
  };
  for (const Cell& c : cells) {
    EXPECT_EQ(tree_pays_off(c.n, c.dim), c.now) << "n=" << c.n << " dim=" << c.dim;
  }
  // The two deliberate departures from the old rule, stated as such: mid-d
  // moderate-n shards gained the tree, huge uniform-regime d16 lost it.
  EXPECT_FALSE(old_rule(8192, 24));
  EXPECT_TRUE(tree_pays_off(8192, 24));
  EXPECT_TRUE(old_rule(65536, 16));
  EXPECT_FALSE(tree_pays_off(65536, 16));
  // And where measurements agreed with the old rule, routing is unchanged.
  for (const std::size_t n : {std::size_t{512}, std::size_t{2048}, std::size_t{100000}}) {
    for (const std::size_t dim : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
      EXPECT_EQ(tree_pays_off(n, dim), old_rule(n, dim)) << "n=" << n << " dim=" << dim;
    }
  }
}

// --- KdRangeIndex traversal counters ----------------------------------------

TEST(KdRangeIndex, TraversalCountersAccumulateAndReset) {
  Rng rng(41);
  const std::size_t n = 4096;
  const auto points = uniform_points(n, 2, 100.0, rng);
  const auto ids = assign_random_ids(n, rng);
  const KdRangeIndex index(points, ids);
  EXPECT_EQ(index.stats().queries, 0u);

  const auto queries = uniform_points(8, 2, 100.0, rng);
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  hybrid_top_ell_batch(index, queries, 16, MetricKind::SquaredEuclidean, out, scratch);

  const TreeStats stats = index.stats();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.leaves_scored, 0u);
  // d = 2 over 4096 points prunes hard: the scan fraction must be well
  // under 1 and every scored point must come from a counted leaf.
  EXPECT_GT(stats.subtrees_pruned, 0u);
  EXPECT_LE(stats.points_scored, stats.leaves_scored * index.leaf_size());
  EXPECT_GT(stats.scan_fraction(n), 0.0);
  EXPECT_LT(stats.scan_fraction(n), 1.0);

  // Counters accumulate across batches…
  hybrid_top_ell_batch(index, queries, 16, MetricKind::SquaredEuclidean, out, scratch);
  EXPECT_EQ(index.stats().queries, 2 * queries.size());
  EXPECT_EQ(index.stats().points_scored, 2 * stats.points_scored);
  // …and reset to zero (the per-stanza delta convention in the benches).
  index.reset_stats();
  EXPECT_EQ(index.stats().queries, 0u);
  EXPECT_EQ(index.stats().points_scored, 0u);
}

// --- weighted median -----------------------------------------------------------------------

// --- KdRangeIndex degenerate segments ---------------------------------------
//
// The live-serving SegmentStore (src/serve/) seals arbitrary delta buffers
// into KdRangeIndex-backed segments, so the tree must stay correct on the
// shapes churn produces: empty stores and all-duplicate point sets.  (The
// third degenerate — a segment that is 100 % tombstones after deletes —
// lives in tests/test_serve.cpp, where tombstones exist.)

TEST(KdRangeIndex, EmptyStore) {
  const KdRangeIndex index(std::span<const PointD>{}, std::span<const PointId>{});
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.nodes().empty());
  const std::vector<PointD> queries = {PointD({1.0, 2.0})};
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  hybrid_top_ell_batch(index, queries, 4, MetricKind::Euclidean, out, scratch);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].empty());
}

TEST(KdRangeIndex, AllPointsDuplicatedTieBreakById) {
  // Every coordinate identical: median splits degenerate to pure id order,
  // every bounding box collapses to one point, and selection is decided
  // entirely by the (distance, id) tie-break.  leaf_size 4 forces a deep
  // tree over the duplicates.
  Rng rng(77);
  const std::vector<PointD> points(64, PointD({3.0, -1.0, 2.0}));
  const auto ids = assign_random_ids(points.size(), rng);
  const KdRangeIndex index(points, ids, 4);
  ASSERT_EQ(index.size(), 64u);
  for (std::size_t node = 0; node < index.nodes().size(); ++node) {
    for (std::size_t j = 0; j < index.dim(); ++j) {
      EXPECT_EQ(index.box_lo(node)[j], index.box_hi(node)[j]) << "box " << node;
    }
  }
  const std::vector<PointD> queries = {PointD({0.0, 0.0, 0.0}), PointD({3.0, -1.0, 2.0})};
  KernelScratch scratch;
  std::vector<std::vector<Key>> hybrid;
  hybrid_top_ell_batch(index, queries, 10, MetricKind::Euclidean, hybrid, scratch);
  std::vector<std::vector<Key>> brute;
  fused_top_ell_batch(index.store(), queries, 10, MetricKind::Euclidean, brute, scratch);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(hybrid[q].size(), 10u);
    ASSERT_EQ(hybrid[q], brute[q]) << "query " << q;
    // All distances tie, so the winners are exactly the 10 smallest ids.
    auto sorted_ids = ids;
    std::sort(sorted_ids.begin(), sorted_ids.end());
    for (std::size_t i = 0; i < hybrid[q].size(); ++i) {
      EXPECT_EQ(hybrid[q][i].id, sorted_ids[i]) << "query " << q << " position " << i;
    }
  }
}

TEST(WeightedMedian, UnitWeightsGiveLowerMedian) {
  std::vector<WeightedKey> items;
  for (std::uint64_t v : {10u, 20u, 30u, 40u, 50u}) items.push_back({Key{v, 0}, 1});
  EXPECT_EQ(weighted_median(items).rank, 30u);
  items.push_back({Key{60, 0}, 1});  // even count: lower median
  EXPECT_EQ(weighted_median(items).rank, 30u);
}

TEST(WeightedMedian, RespectsWeights) {
  std::vector<WeightedKey> items{{Key{1, 0}, 1}, {Key{2, 0}, 100}, {Key{3, 0}, 1}};
  EXPECT_EQ(weighted_median(items).rank, 2u);
  items = {{Key{1, 0}, 10}, {Key{100, 0}, 1}};
  EXPECT_EQ(weighted_median(items).rank, 1u);
}

TEST(WeightedMedian, IgnoresZeroWeights) {
  std::vector<WeightedKey> items{{Key{1, 0}, 0}, {Key{5, 0}, 3}, {Key{9, 0}, 0}};
  EXPECT_EQ(weighted_median(items).rank, 5u);
}

TEST(WeightedMedian, AllZeroThrows) {
  std::vector<WeightedKey> items{{Key{1, 0}, 0}};
  EXPECT_THROW((void)weighted_median(items), InvariantError);
}

TEST(WeightedMedian, HalfWeightProperty) {
  // Σ weight(x <= m) >= total/2 and Σ weight(x >= m) >= total/2.
  Rng rng(40);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<WeightedKey> items;
    std::uint64_t total = 0;
    const std::size_t n = 1 + rng.below(20);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w = rng.below(10);
      items.push_back({Key{rng.below(100), rng.next_u64()}, w});
      total += w;
    }
    if (total == 0) continue;
    const Key m = weighted_median(items);
    std::uint64_t leq = 0, geq = 0;
    for (const auto& item : items) {
      if (item.key <= m) leq += item.weight;
      if (item.key >= m) geq += item.weight;
    }
    EXPECT_GE(2 * leq, total) << "trial " << trial;
    EXPECT_GE(2 * geq + 1, total) << "trial " << trial;  // lower median: strict side
  }
}

}  // namespace
}  // namespace dknn
