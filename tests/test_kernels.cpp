// Tests for the SoA FlatStore and the fused batched scoring/top-ℓ kernels:
// byte-identical parity against the per-query AoS path for all four
// MetricKinds across random dimensions, edge cases (ℓ ≥ n, ℓ = 0, empty
// shards), the batched driver / mlapi paths against their per-query
// equivalents, and the SquaredEuclidean-vs-Euclidean ordering equivalence
// the default scoring now relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/driver.hpp"
#include "core/mlapi.hpp"
#include "data/flat_store.hpp"
#include "data/generators.hpp"
#include "data/ids.hpp"
#include "data/kernels.hpp"
#include "data/simd/dispatch.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/select.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;
using testing_support::payloads_by_id;
using testing_support::reference_top_ell;
using testing_support::shared_tables;

constexpr MetricKind kAllKinds[] = {MetricKind::Euclidean, MetricKind::SquaredEuclidean,
                                    MetricKind::Manhattan, MetricKind::Chebyshev};

VectorShard make_shard(std::size_t n, std::size_t dim, Rng& rng) {
  VectorShard shard;
  shard.points = uniform_points(n, dim, 50.0, rng);
  shard.ids = assign_random_ids(n, rng);
  return shard;
}

// --- FlatStore --------------------------------------------------------------

TEST(FlatStore, RoundTripsPoints) {
  Rng rng(11);
  const auto shard = make_shard(37, 5, rng);
  const FlatStore store(shard.points, shard.ids);
  ASSERT_EQ(store.size(), 37u);
  ASSERT_EQ(store.dim(), 5u);
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.point(i), shard.points[i]);
    EXPECT_EQ(store.id(i), shard.ids[i]);
  }
}

TEST(FlatStore, ColumnsAreContiguousViews) {
  Rng rng(12);
  const auto shard = make_shard(9, 3, rng);
  const FlatStore store(shard.points, shard.ids);
  for (std::size_t j = 0; j < 3; ++j) {
    const auto col = store.dim_coords(j);
    ASSERT_EQ(col.size(), 9u);
    for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(col[i], shard.points[i][j]);
  }
}

TEST(FlatStore, EmptyStore) {
  const FlatStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  const FlatStore dim_only(4);
  EXPECT_TRUE(dim_only.empty());
  EXPECT_EQ(dim_only.dim(), 4u);
}

TEST(FlatStore, RejectsMisalignedInputs) {
  Rng rng(13);
  auto shard = make_shard(4, 2, rng);
  shard.ids.pop_back();
  EXPECT_THROW((FlatStore{shard.points, shard.ids}), InvariantError);
}

// --- fused kernel parity ----------------------------------------------------

TEST(FusedKernels, ByteIdenticalToAosPathAllMetricsAllDims) {
  Rng rng(21);
  // 1..16 hit the fixed-dimension kernels; 17 and 24 the dynamic fallback.
  const std::size_t dims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24};
  for (const MetricKind kind : kAllKinds) {
    for (const std::size_t dim : dims) {
      const std::size_t n = 40 + static_cast<std::size_t>(rng.below(4000));
      const auto shard = make_shard(n, dim, rng);
      const FlatStore store(shard.points, shard.ids);
      const PointD query = uniform_points(1, dim, 50.0, rng)[0];
      for (const std::size_t ell : {std::size_t{1}, std::size_t{17}, n / 2}) {
        const auto expected = reference_top_ell(shard, query, kind, ell);
        const auto actual = fused_top_ell(store, query, ell, kind);
        expect_same_keys(expected, actual, metric_kind_name(kind));
      }
    }
  }
}

TEST(FusedKernels, EllAtLeastNReturnsEverythingSorted) {
  Rng rng(22);
  for (const MetricKind kind : kAllKinds) {
    const auto shard = make_shard(123, 4, rng);
    const FlatStore store(shard.points, shard.ids);
    const PointD query = uniform_points(1, 4, 50.0, rng)[0];
    for (const std::size_t ell : {std::size_t{123}, std::size_t{124}, std::size_t{100000}}) {
      const auto expected = reference_top_ell(shard, query, kind, ell);
      const auto actual = fused_top_ell(store, query, ell, kind);
      ASSERT_EQ(actual.size(), 123u);
      expect_same_keys(expected, actual, metric_kind_name(kind));
      EXPECT_TRUE(std::is_sorted(actual.begin(), actual.end()));
    }
  }
}

TEST(FusedKernels, EmptyShardAndZeroEll) {
  Rng rng(23);
  const auto shard = make_shard(50, 3, rng);
  const FlatStore store(shard.points, shard.ids);
  const FlatStore empty(3);
  const PointD query = uniform_points(1, 3, 50.0, rng)[0];
  for (const MetricKind kind : kAllKinds) {
    EXPECT_TRUE(fused_top_ell(empty, query, 8, kind).empty());
    EXPECT_TRUE(fused_top_ell(store, query, 0, kind).empty());
  }
}

TEST(FusedKernels, RejectsDimensionMismatch) {
  Rng rng(24);
  const auto shard = make_shard(10, 3, rng);
  const FlatStore store(shard.points, shard.ids);
  const PointD query = uniform_points(1, 4, 50.0, rng)[0];
  EXPECT_THROW((void)fused_top_ell(store, query, 2, MetricKind::Euclidean), InvariantError);
}

TEST(FusedKernels, DuplicateCoordinatesTieBreakById) {
  // Many points collapse onto identical coordinates; selection must order
  // ties by id exactly as Key's lexicographic order does.
  Rng rng(25);
  VectorShard shard;
  for (std::size_t i = 0; i < 64; ++i) {
    shard.points.push_back(PointD({static_cast<double>(i % 4), 1.0}));
  }
  shard.ids = assign_random_ids(64, rng);
  const FlatStore store(shard.points, shard.ids);
  const PointD query({0.0, 1.0});
  for (const MetricKind kind : kAllKinds) {
    const auto expected = reference_top_ell(shard, query, kind, 20);
    const auto actual = fused_top_ell(store, query, 20, kind);
    expect_same_keys(expected, actual, metric_kind_name(kind));
  }
}

TEST(FusedKernels, BatchMatchesSingleQuery) {
  Rng rng(26);
  const auto shard = make_shard(2000, 6, rng);
  const FlatStore store(shard.points, shard.ids);
  const auto queries = uniform_points(9, 6, 50.0, rng);
  KernelScratch scratch;
  std::vector<std::vector<Key>> batch;
  for (const MetricKind kind : kAllKinds) {
    fused_top_ell_batch(store, queries, 33, kind, batch, scratch);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expect_same_keys(fused_top_ell(store, queries[q], 33, kind), batch[q],
                       metric_kind_name(kind));
    }
  }
}

TEST(FusedKernels, ScratchReuseAcrossShapes) {
  // One scratch across stores of different sizes / query counts / ℓ —
  // leftover state must never leak between calls.
  Rng rng(27);
  KernelScratch scratch;
  std::vector<std::vector<Key>> batch;
  for (const std::size_t n : {std::size_t{500}, std::size_t{3}, std::size_t{1500}}) {
    for (const std::size_t ell : {std::size_t{1}, std::size_t{64}}) {
      const auto shard = make_shard(n, 2, rng);
      const FlatStore store(shard.points, shard.ids);
      const auto queries = uniform_points(1 + rng.below(5), 2, 50.0, rng);
      fused_top_ell_batch(store, queries, ell, MetricKind::Manhattan, batch, scratch);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        expect_same_keys(reference_top_ell(shard, queries[q], MetricKind::Manhattan, ell),
                         batch[q], "scratch-reuse");
      }
    }
  }
}

TEST(ScoreStore, MatchesScoreVectorShard) {
  Rng rng(28);
  for (const std::size_t dim : {std::size_t{5}, std::size_t{21}}) {  // fixed + dynamic kernels
    const auto shard = make_shard(777, dim, rng);
    const FlatStore store(shard.points, shard.ids);
    const PointD query = uniform_points(1, dim, 50.0, rng)[0];
    std::vector<Key> soa;
    score_store(store, query, MetricKind::Euclidean, soa);
    const auto aos = score_vector_shard(shard, query, EuclideanMetric{});
    expect_same_keys(aos, soa, "score_store");
  }
}

// --- golden known-answer fixtures -------------------------------------------
//
// Every other kernel test (and the whole of test_parity / test_simd_parity)
// checks paths *against each other* — a bug shared by the reference and
// every ISA would sail through.  These fixtures pin the exact expected Key
// bytes, hand-computed from IEEE-754 bit layouts, so the absolute answer is
// locked too.  Coordinates are chosen so every metric's distance is exactly
// representable (3-4-5 family): for the query at the origin,
//
//   point        id   L2        L2²        L1        L∞
//   (-3, -4)     10   5.0       25.0       7.0       4.0
//   ( 3,  4)     20   5.0       25.0       7.0       4.0   (tie: id order)
//   ( 0,  0)     30   0.0        0.0       0.0       0.0
//   ( 6,  8)     40  10.0      100.0      14.0       8.0
//   ( 0,  2)     50   2.0        4.0       2.0       2.0
//
// Rank constants below are the raw IEEE-754 doubles: 2.0 = 0x4000…,
// 4.0 = 0x4010…, 5.0 = 0x4014…, 7.0 = 0x401C…, 8.0 = 0x4020…,
// 10.0 = 0x4024…, 14.0 = 0x402C…, 25.0 = 0x4039…, 100.0 = 0x4059….

struct GoldenCase {
  MetricKind kind;
  Key expected[5];  ///< ascending (rank, id)
};

/// Restores auto-dispatch even when an ASSERT bails out of the per-ISA
/// block, so a golden failure can't leak a forced ISA into later tests.
using ForcedIsa = simd::ScopedForceIsa;

constexpr GoldenCase kGoldenCases[] = {
    {MetricKind::Euclidean,
     {Key{0x0000000000000000ULL, 30}, Key{0x4000000000000000ULL, 50},
      Key{0x4014000000000000ULL, 10}, Key{0x4014000000000000ULL, 20},
      Key{0x4024000000000000ULL, 40}}},
    {MetricKind::SquaredEuclidean,
     {Key{0x0000000000000000ULL, 30}, Key{0x4010000000000000ULL, 50},
      Key{0x4039000000000000ULL, 10}, Key{0x4039000000000000ULL, 20},
      Key{0x4059000000000000ULL, 40}}},
    {MetricKind::Manhattan,
     {Key{0x0000000000000000ULL, 30}, Key{0x4000000000000000ULL, 50},
      Key{0x401C000000000000ULL, 10}, Key{0x401C000000000000ULL, 20},
      Key{0x402C000000000000ULL, 40}}},
    {MetricKind::Chebyshev,
     {Key{0x0000000000000000ULL, 30}, Key{0x4000000000000000ULL, 50},
      Key{0x4010000000000000ULL, 10}, Key{0x4010000000000000ULL, 20},
      Key{0x4020000000000000ULL, 40}}},
};

TEST(GoldenKernels, ExactKeyBytesEveryMetricEveryIsaEveryPath) {
  // Shard order is scrambled relative to the expected ascending output so
  // selection, not insertion order, produces the ranking.
  VectorShard shard;
  shard.points = {PointD({3.0, 4.0}), PointD({6.0, 8.0}), PointD({0.0, 0.0}),
                  PointD({-3.0, -4.0}), PointD({0.0, 2.0})};
  shard.ids = {20, 40, 30, 10, 50};
  const FlatStore store(shard.points, shard.ids);
  const PointD query({0.0, 0.0});

  for (const GoldenCase& gc : kGoldenCases) {
    SCOPED_TRACE(metric_kind_name(gc.kind));
    // The AoS functor reference must hit the golden bytes too — it is the
    // anchor every parity suite compares against.
    {
      const auto ref = reference_top_ell(shard, query, gc.kind, 5);
      ASSERT_EQ(ref.size(), 5u);
      for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(ref[i].rank, gc.expected[i].rank) << "reference rank at " << i;
        EXPECT_EQ(ref[i].id, gc.expected[i].id) << "reference id at " << i;
      }
    }
    for (std::size_t level = 0; level < simd::kIsaCount; ++level) {
      const auto isa = static_cast<simd::Isa>(level);
      if (!simd::isa_supported(isa)) continue;
      SCOPED_TRACE(simd::isa_name(isa));
      const ForcedIsa pin(isa);
      const auto fused = fused_top_ell(store, query, 5, gc.kind);
      KernelScratch scratch;
      RangeTopEll scorer(store, query, 5, gc.kind, scratch);
      scorer.score_range(0, 2);
      scorer.score_range(2, 5);
      std::vector<Key> ranged;
      scorer.finish(ranged);
      std::vector<Key> scored;
      score_store(store, query, gc.kind, scored);
      const auto materialized = top_ell_smallest(std::span<const Key>(scored), 5);
      ASSERT_EQ(fused.size(), 5u);
      ASSERT_EQ(ranged.size(), 5u);
      ASSERT_EQ(materialized.size(), 5u);
      for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(fused[i].rank, gc.expected[i].rank) << "fused rank at " << i;
        EXPECT_EQ(fused[i].id, gc.expected[i].id) << "fused id at " << i;
        EXPECT_EQ(ranged[i].rank, gc.expected[i].rank) << "range rank at " << i;
        EXPECT_EQ(ranged[i].id, gc.expected[i].id) << "range id at " << i;
        EXPECT_EQ(materialized[i].rank, gc.expected[i].rank) << "materialized rank at " << i;
        EXPECT_EQ(materialized[i].id, gc.expected[i].id) << "materialized id at " << i;
      }
    }
    // Truncation keeps the ascending prefix: ℓ = 3 drops the two largest.
    const auto top3 = fused_top_ell(store, query, 3, gc.kind);
    ASSERT_EQ(top3.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(top3[i].rank, gc.expected[i].rank);
      EXPECT_EQ(top3[i].id, gc.expected[i].id);
    }
  }
}

// The 3-4-5 fixtures above only ever take sqrt of perfect squares, which
// cannot distinguish a correctly-rounded sqrt from a sloppy one.  This
// fixture pins score_store's dispatched sqrt epilogue (KernelOps::sqrt_tile
// — vsqrtpd on the vector ISAs) against hand-pinned IEEE-754 bit patterns
// of *irrational* square roots; IEEE requires sqrt to be correctly
// rounded, so these bytes are exact on every conforming ISA:
//
//   point     id   L2²    L2        = bits
//   (1, 1)    11    2.0   √2        = 0x3FF6A09E667F3BCD
//   (2, 1)    22    5.0   √5        = 0x4001E3779B97F4A8
//   (5, 5)    33   50.0   √50       = 0x401C48C6001F0AC0
//   (3, 4)    44   25.0   5.0       = 0x4014000000000000 (exact control)
//   (0, 0)    55    0.0   0.0       = 0x0000000000000000
TEST(GoldenKernels, ScoreStoreSqrtEpilogueExactBytesEveryIsa) {
  VectorShard shard;
  shard.points = {PointD({1.0, 1.0}), PointD({2.0, 1.0}), PointD({5.0, 5.0}),
                  PointD({3.0, 4.0}), PointD({0.0, 0.0})};
  shard.ids = {11, 22, 33, 44, 55};
  const FlatStore store(shard.points, shard.ids);
  const PointD query({0.0, 0.0});
  // score_store emits keys in point order (no selection).
  constexpr Key kExpected[5] = {
      Key{0x3FF6A09E667F3BCDULL, 11}, Key{0x4001E3779B97F4A8ULL, 22},
      Key{0x401C48C6001F0AC0ULL, 33}, Key{0x4014000000000000ULL, 44},
      Key{0x0000000000000000ULL, 55}};
  for (std::size_t level = 0; level < simd::kIsaCount; ++level) {
    const auto isa = static_cast<simd::Isa>(level);
    if (!simd::isa_supported(isa)) continue;
    SCOPED_TRACE(simd::isa_name(isa));
    const ForcedIsa pin(isa);
    std::vector<Key> scored;
    score_store(store, query, MetricKind::Euclidean, scored);
    ASSERT_EQ(scored.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(scored[i].rank, kExpected[i].rank) << "rank at " << i;
      EXPECT_EQ(scored[i].id, kExpected[i].id) << "id at " << i;
    }
    // Cross-check the fixture against the AoS functor reference.
    const auto aos = score_vector_shard(shard, query, EuclideanMetric{});
    expect_same_keys(aos, scored, "sqrt-epilogue vs AoS");
  }
}

// --- squared-Euclidean default (sqrt-free hot loop) -------------------------

TEST(SquaredEuclideanDefault, SelectsIdenticalIdsToEuclidean) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 1 + static_cast<std::size_t>(rng.below(8));
    const auto shard = make_shard(600, dim, rng);
    const PointD query = uniform_points(1, dim, 50.0, rng)[0];
    const auto euclid =
        top_ell_smallest(std::span<const Key>(score_vector_shard(shard, query, EuclideanMetric{})),
                         48);
    // Default overload = SquaredEuclidean.
    const auto squared =
        top_ell_smallest(std::span<const Key>(score_vector_shard(shard, query)), 48);
    ASSERT_EQ(euclid.size(), squared.size());
    for (std::size_t i = 0; i < euclid.size(); ++i) {
      EXPECT_EQ(euclid[i].id, squared[i].id) << "trial " << trial << " position " << i;
    }
  }
}

// --- batched driver path ----------------------------------------------------

TEST(BatchDriver, ScoreBatchMatchesPerQueryTopEll) {
  Rng rng(41);
  auto points = uniform_points(900, 4, 50.0, rng);
  const auto shards = make_vector_shards(std::move(points), 5, PartitionScheme::Random, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Brute);
  const auto queries = uniform_points(7, 4, 50.0, rng);
  for (const MetricKind kind : kAllKinds) {
    const auto scored = score_vector_shards_batch(indexes, queries, 16, kind);
    ASSERT_EQ(scored.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(scored[q].size(), shards.size());
      for (std::size_t m = 0; m < shards.size(); ++m) {
        expect_same_keys(reference_top_ell(shards[m], queries[q], kind, 16), scored[q][m],
                         metric_kind_name(kind));
      }
    }
  }
}

TEST(BatchDriver, HandlesEmptyShards) {
  // More machines than points: some shards are empty; the batch path must
  // mirror the per-query path including the empty entries.
  Rng rng(42);
  auto points = uniform_points(3, 2, 50.0, rng);
  const auto shards = make_vector_shards(std::move(points), 6, PartitionScheme::FirstHeavy, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Brute);
  const auto queries = uniform_points(2, 2, 50.0, rng);
  const auto scored = score_vector_shards_batch(indexes, queries, 4, MetricKind::Euclidean);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t m = 0; m < shards.size(); ++m) {
      expect_same_keys(reference_top_ell(shards[m], queries[q], MetricKind::Euclidean, 4),
                       scored[q][m], "empty-shard batch");
    }
  }
}

TEST(BatchDriver, RunKnnBatchMatchesPerQueryRuns) {
  Rng rng(43);
  auto points = uniform_points(1200, 3, 50.0, rng);
  const auto shards = make_vector_shards(std::move(points), 8, PartitionScheme::RoundRobin, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Brute);
  const auto queries = uniform_points(5, 3, 50.0, rng);
  const std::uint64_t ell = 24;
  const auto scored = score_vector_shards_batch(indexes, queries, ell);

  EngineConfig engine;
  engine.seed = 99;
  const auto batch = run_knn_batch(scored, ell, KnnAlgo::DistKnn, engine);
  ASSERT_EQ(batch.per_query.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    // Same answer as the ground truth over the same scored inputs.
    expect_same_keys(expected_smallest(scored[q], ell), batch.per_query[q].keys, "batch run");
    EXPECT_GT(batch.per_query[q].report.rounds, 0u);
  }
  EXPECT_GT(batch.report.rounds, 0u);
  // Per-query round counts must sum to at most the whole-batch figure.
  std::uint64_t sum = 0;
  for (const auto& one : batch.per_query) sum += one.report.rounds;
  EXPECT_LE(sum, batch.report.rounds);
}

TEST(BatchDriver, PerQueryRoundsMatchRunKnnAlone) {
  // A batch query's rounds run from the one after the last machine
  // finished the previous query through the last round any machine spent
  // on it.  So query 0 of a batch, and a one-query batch, count what
  // run_knn counts for the same input alone — with the early finish
  // (ℓ = 8) and on the paper's full path (ℓ = 64) — and the counts sum to
  // the batch total.
  Rng rng(45);
  auto points = uniform_points(4000, 3, 50.0, rng);
  const auto shards = make_vector_shards(std::move(points), 16, PartitionScheme::RoundRobin, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Brute);
  const auto queries = uniform_points(4, 3, 50.0, rng);
  EngineConfig engine;
  engine.seed = 101;
  for (const std::uint64_t ell : {8u, 64u}) {
    SCOPED_TRACE("ell=" + std::to_string(ell));
    const auto scored = score_vector_shards_batch(indexes, queries, ell);
    const auto alone = run_knn(scored[0], ell, KnnAlgo::DistKnn, engine);
    const auto single = run_knn_batch({scored[0]}, ell, KnnAlgo::DistKnn, engine);
    EXPECT_EQ(single.per_query[0].report.rounds, alone.report.rounds);
    EXPECT_EQ(single.report.rounds, alone.report.rounds);
    const auto batch = run_knn_batch(scored, ell, KnnAlgo::DistKnn, engine);
    EXPECT_EQ(batch.per_query[0].report.rounds, alone.report.rounds);
    std::uint64_t sum = 0;
    for (const auto& one : batch.per_query) {
      EXPECT_GT(one.report.rounds, 0u);
      sum += one.report.rounds;
    }
    EXPECT_EQ(sum, batch.report.rounds);
    // The parallel executor counts the same rounds.
    EngineConfig parallel = engine;
    parallel.parallel = true;
    parallel.threads = 4;
    const auto par = run_knn_batch(scored, ell, KnnAlgo::DistKnn, parallel);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(par.per_query[q].report.rounds, batch.per_query[q].report.rounds);
      expect_same_keys(batch.per_query[q].keys, par.per_query[q].keys, "parallel batch");
    }
  }
}

TEST(BatchDriver, AllAlgosAgreeOnBatch) {
  Rng rng(44);
  auto points = uniform_points(640, 2, 50.0, rng);
  const auto shards = make_vector_shards(std::move(points), 4, PartitionScheme::RoundRobin, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Brute);
  const auto queries = uniform_points(3, 2, 50.0, rng);
  const std::uint64_t ell = 10;
  const auto scored = score_vector_shards_batch(indexes, queries, ell);
  EngineConfig engine;
  engine.seed = 7;
  for (const KnnAlgo algo : {KnnAlgo::DistKnn, KnnAlgo::CappedSelect, KnnAlgo::Simple,
                             KnnAlgo::SaukasSong, KnnAlgo::BinSearch}) {
    const auto batch = run_knn_batch(scored, ell, algo, engine);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expect_same_keys(expected_smallest(scored[q], ell), batch.per_query[q].keys,
                       knn_algo_name(algo));
    }
  }
}

// --- batched mlapi ----------------------------------------------------------
// The batched scoring stage (score_vector_shards_batch over brute indexes)
// and the per-query one (score_vector_shards) feed the same scored-batch
// stage the same keys.

TEST(BatchMlapi, ClassifyBatchMatchesPerQuery) {
  Rng rng(51);
  const GaussianMixture mixture(ClusterSpec{3, 4, 60.0, 2.5}, rng);
  const auto train = mixture.sample(400, rng);
  std::vector<PointD> points;
  std::vector<std::uint32_t> flat_labels;
  for (const auto& sample : train) {
    points.push_back(sample.x);
    flat_labels.push_back(sample.label);
  }
  auto ids = assign_random_ids(points.size(), rng);
  // Shard by hand so points and labels stay aligned per machine.
  const std::uint32_t k = 5;
  std::vector<VectorShard> shards(k);
  std::vector<std::vector<std::uint32_t>> labels(k);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto m = static_cast<std::uint32_t>(i % k);
    shards[m].points.push_back(points[i]);
    shards[m].ids.push_back(ids[i]);
    labels[m].push_back(flat_labels[i]);
  }
  const auto test = mixture.sample(6, rng);
  std::vector<PointD> queries;
  for (const auto& sample : test) queries.push_back(sample.x);

  EngineConfig engine;
  engine.seed = 3;
  const auto by_id = payloads_by_id(shards, labels);
  const auto batch = classify_scored_batch(
      score_vector_shards_batch(make_shard_indexes(shards, ScoringPolicy::Brute), queries, 15,
                                MetricKind::SquaredEuclidean),
      by_id, 15, engine);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto single =
        classify_scored_batch({score_vector_shards(shards, queries[q])}, by_id, 15, engine)
            .front();
    EXPECT_EQ(batch[q].label, single.label) << "query " << q;
    ASSERT_EQ(batch[q].votes.size(), single.votes.size());
    for (std::size_t i = 0; i < single.votes.size(); ++i) {
      EXPECT_EQ(batch[q].votes[i].first.id, single.votes[i].first.id);
      EXPECT_EQ(batch[q].votes[i].second, single.votes[i].second);
    }
  }
  EXPECT_GT(batch[0].run.report.rounds, 0u);  // whole-batch report on result 0
}

TEST(BatchMlapi, RegressBatchMatchesPerQuery) {
  Rng rng(52);
  const auto data = regression_dataset(300, 2, 8.0, 0.05, rng);
  std::vector<PointD> points;
  std::vector<double> flat_targets;
  for (const auto& sample : data) {
    points.push_back(sample.x);
    flat_targets.push_back(sample.y);
  }
  auto ids = assign_random_ids(points.size(), rng);
  const std::uint32_t k = 4;
  std::vector<VectorShard> shards(k);
  std::vector<std::vector<double>> targets(k);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto m = static_cast<std::uint32_t>(i % k);
    shards[m].points.push_back(points[i]);
    shards[m].ids.push_back(ids[i]);
    targets[m].push_back(flat_targets[i]);
  }
  const auto queries = uniform_points(5, 2, 8.0, rng);

  EngineConfig engine;
  engine.seed = 4;
  const auto by_id = shared_tables(payloads_by_id(shards, targets));
  const auto batch = regress_scored_batch(
      score_vector_shards_batch(make_shard_indexes(shards, ScoringPolicy::Brute), queries, 12,
                                MetricKind::SquaredEuclidean),
      by_id, 12, engine);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto single =
        regress_scored_batch({score_vector_shards(shards, queries[q])}, by_id, 12, engine)
            .front();
    EXPECT_DOUBLE_EQ(batch[q].prediction, single.prediction) << "query " << q;
  }
}

}  // namespace
}  // namespace dknn
