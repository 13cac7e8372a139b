// KnnService facade suite: lifecycle/misuse (typed errors with exact,
// centralized texts), cache and live-mutation behavior, and the parity
// anchor of the whole API redesign — a seeded fuzz pinning
// KnnService::query_batch byte-identical to the pre-facade free-function
// compositions (score_vector_shards_batch + run_knn_batch in static mode,
// score_serve_snapshots_batch + run_knn_batch in live mode) across
// 4 metrics × brute/tree/auto × static/live, ≥ 500 asserted trials.
//
// Why byte-identical: the facade is documented as *the same call* as the
// decomposed stages.  If it ever scored, merged, or configured anything
// differently, protocol-level behavior would silently fork between users
// of the two surfaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/validate.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;
using testing_support::payloads_by_id;
using testing_support::shared_tables;

constexpr MetricKind kAllKinds[] = {MetricKind::Euclidean, MetricKind::SquaredEuclidean,
                                    MetricKind::Manhattan, MetricKind::Chebyshev};
constexpr ScoringPolicy kAllPolicies[] = {ScoringPolicy::Brute, ScoringPolicy::Tree,
                                          ScoringPolicy::Auto};

std::vector<PointD> make_points(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<PointD> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> coords(dim);
    for (auto& c : coords) c = rng.uniform01() * 100.0 - 50.0;
    points.emplace_back(std::move(coords));
  }
  return points;
}

/// A tiny service over `n` points for the lifecycle tests.
KnnService make_static_service(std::size_t n, std::size_t dim, std::uint64_t ell,
                               std::size_t cache = 0) {
  Rng rng(7);
  return KnnServiceBuilder()
      .machines(3)
      .ell(ell)
      .cache_capacity(cache)
      .dataset(make_points(n, dim, rng))
      .build();
}

// --- typed precondition errors: exact, centralized texts ---------------------

TEST(ServiceErrors, QueryBeforeBuild) {
  KnnService service;
  EXPECT_FALSE(service.built());
  try {
    (void)service.query(PointD({1.0}));
    FAIL() << "expected ServiceStateError";
  } catch (const ServiceStateError& e) {
    EXPECT_EQ(std::string(e.what()), "dknn: KnnService used before build()");
  }
  EXPECT_THROW((void)service.stats(), ServiceStateError);
  EXPECT_THROW((void)service.snapshot_epoch(), ServiceStateError);
}

TEST(ServiceErrors, LiveCallsOnStaticService) {
  KnnService service = make_static_service(50, 3, 4);
  const std::string expected =
      "dknn: live-serving call on a static-mode KnnService (build with "
      "KnnServiceBuilder::live)";
  try {
    (void)service.insert(PointD({1.0, 2.0, 3.0}), 99);
    FAIL() << "expected ServiceStateError";
  } catch (const ServiceStateError& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  EXPECT_THROW((void)service.erase(1), ServiceStateError);
  EXPECT_THROW((void)service.compact_now(), ServiceStateError);
}

TEST(ServiceErrors, ClassifyWithoutLabelsRegressWithoutTargets) {
  KnnService service = make_static_service(50, 3, 4);
  try {
    (void)service.classify(PointD({1.0, 2.0, 3.0}));
    FAIL() << "expected ServiceStateError";
  } catch (const ServiceStateError& e) {
    EXPECT_EQ(std::string(e.what()),
              "dknn: KnnService::classify requires labels (KnnServiceBuilder::labels or "
              "insert_labeled)");
  }
  try {
    (void)service.regress(PointD({1.0, 2.0, 3.0}));
    FAIL() << "expected ServiceStateError";
  } catch (const ServiceStateError& e) {
    EXPECT_EQ(std::string(e.what()),
              "dknn: KnnService::regress requires targets (KnnServiceBuilder::targets or "
              "insert_target)");
  }
}

TEST(ServiceErrors, EllZeroIsTypedAndWordedIdentically) {
  // The builder and both query entries' per-call overrides require ℓ ≥ 1
  // through the same validator — same type, same text (scoring an ℓ of
  // zero stays permissive; ParityFuzz.EllZeroYieldsEmptySlots pins that).
  const std::string expected = positive_ell_text();
  EXPECT_EQ(expected, "dknn: ell must be >= 1");
  const auto expect_invalid_ell = [&expected](const auto& call, const char* entry) {
    SCOPED_TRACE(entry);
    try {
      call();
      FAIL() << "expected InvalidEllError";
    } catch (const InvalidEllError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  };
  expect_invalid_ell([] { (void)KnnServiceBuilder().ell(0).build(); }, "build");
  KnnService service = make_static_service(20, 2, 3);
  QueryOptions zero;
  zero.ell = 0;
  const std::vector<PointD> queries = {PointD({1.0, 2.0}), PointD({3.0, 4.0})};
  expect_invalid_ell([&] { (void)service.query(queries[0], zero); }, "query");
  expect_invalid_ell([&] { (void)service.query_batch(queries, zero); }, "query_batch");
}

TEST(ServiceErrors, DimensionMismatchIsWordedIdenticallyAcrossEveryEntry) {
  // The satellite fix: the scalar (AoS functor), vector (fused batch),
  // serve (snapshot) and facade entries used to fail with four different
  // messages; now they all raise DimensionMismatchError with one text.
  const std::string expected = dimension_mismatch_text(3, 2);
  EXPECT_EQ(expected, "dknn: query dimension mismatch (expected 3, got 2)");
  const PointD bad({1.0, 2.0});

  VectorShard shard;
  shard.points = {PointD({1.0, 2.0, 3.0}), PointD({4.0, 5.0, 6.0})};
  shard.ids = {1, 2};

  {  // scalar entry: per-query AoS scoring through the metric functors
    SCOPED_TRACE("scalar");
    try {
      (void)score_vector_shard(shard, bad);
      FAIL() << "expected DimensionMismatchError";
    } catch (const DimensionMismatchError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  {  // vector entry: fused batch kernels over the SoA store
    SCOPED_TRACE("vector");
    const FlatStore store(shard.points, shard.ids);
    try {
      (void)fused_top_ell(store, bad, 1, MetricKind::Euclidean);
      FAIL() << "expected DimensionMismatchError";
    } catch (const DimensionMismatchError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  {  // kd-hybrid entry: tree-pruned scoring over a KdRangeIndex
    SCOPED_TRACE("kd-hybrid");
    const KdRangeIndex index(shard.points, shard.ids);
    KernelScratch scratch;
    std::vector<std::vector<Key>> out;
    try {
      hybrid_top_ell_batch(index, std::vector<PointD>{bad}, 1, MetricKind::Euclidean, out,
                           scratch);
      FAIL() << "expected DimensionMismatchError";
    } catch (const DimensionMismatchError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  {  // serve entry: snapshot scoring over a live store
    SCOPED_TRACE("serve");
    SegmentStore store(3);
    store.insert(shard.points[0], 1);
    try {
      (void)snapshot_top_ell(*store.snapshot(), bad, 1, MetricKind::Euclidean);
      FAIL() << "expected DimensionMismatchError";
    } catch (const DimensionMismatchError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  {  // facade entry
    SCOPED_TRACE("facade");
    KnnService service = make_static_service(20, 3, 2);
    try {
      (void)service.query(bad);
      FAIL() << "expected DimensionMismatchError";
    } catch (const DimensionMismatchError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
}

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

template <typename Call>
void expect_non_finite_rejected(const Call& call, const char* entry) {
  SCOPED_TRACE(entry);
  try {
    call();
    FAIL() << "expected NonFiniteCoordinateError";
  } catch (const NonFiniteCoordinateError& e) {
    EXPECT_EQ(std::string(e.what()), non_finite_coordinate_text());
  }
}

TEST(ServiceErrors, NonFiniteCoordinatesRejectedAtEveryEntry) {
  EXPECT_EQ(std::string(non_finite_coordinate_text()),
            "dknn: coordinates must be finite (got NaN or infinity)");
  for (const double bad : kNonFinite) {
    SCOPED_TRACE(bad);
    Rng rng(31);
    const PointD bad_point({1.0, bad});

    // The builder's dataset — flat (static and live, into flat and tree
    // shards) and pre-sharded.
    std::vector<PointD> flat = make_points(20, 2, rng);
    flat[7] = bad_point;
    for (const ScoringPolicy policy : {ScoringPolicy::Brute, ScoringPolicy::Tree}) {
      expect_non_finite_rejected(
          [&] { (void)KnnServiceBuilder().machines(2).policy(policy).dataset(flat).build(); },
          "dataset");
      expect_non_finite_rejected(
          [&] {
            (void)KnnServiceBuilder().machines(2).policy(policy).live().dataset(flat).build();
          },
          "live dataset");
    }
    VectorShard shard;
    shard.points = {PointD({0.0, 0.0}), bad_point};
    shard.ids = {1, 2};
    expect_non_finite_rejected([&] { (void)KnnServiceBuilder().dataset_sharded({shard}).build(); },
                               "dataset_sharded");

    // Every query entry.
    KnnService service = KnnServiceBuilder()
                             .machines(2)
                             .ell(3)
                             .dataset(make_points(30, 2, rng))
                             .labels(std::vector<std::uint32_t>(30, 1))
                             .targets(std::vector<double>(30, 0.5))
                             .build();
    const std::vector<PointD> batch = {PointD({0.0, 0.0}), bad_point};
    expect_non_finite_rejected([&] { (void)service.query(bad_point); }, "query");
    expect_non_finite_rejected([&] { (void)service.query_batch(batch); }, "query_batch");
    expect_non_finite_rejected([&] { (void)service.classify(bad_point); }, "classify");
    expect_non_finite_rejected([&] { (void)service.classify_batch(batch); }, "classify_batch");
    expect_non_finite_rejected([&] { (void)service.regress(bad_point); }, "regress");
    expect_non_finite_rejected([&] { (void)service.regress_batch(batch); }, "regress_batch");
  }
}

TEST(ServiceErrors, RejectedNonFiniteInsertLeavesNoTrace) {
  // A rejected insert changes nothing: answers, epoch, payload tables and
  // the round-robin routing of later inserts all match a twin service
  // that never saw the bad point.  (k = 4: three rejected inserts that
  // each advanced the routing would land later inserts elsewhere.)
  constexpr std::uint32_t k = 4;
  for (const double bad : kNonFinite) {
    SCOPED_TRACE(bad);
    Rng rng(37);
    const std::vector<PointD> points = make_points(40, 2, rng);
    const auto build = [&] {
      return KnnServiceBuilder()
          .machines(k)
          .ell(4)
          .live()
          .fault_tolerant()
          .dataset(points)
          .labels(std::vector<std::uint32_t>(points.size(), 1))
          .targets(std::vector<double>(points.size(), 0.5))
          .build();
    };
    KnnService service = build();
    KnnService twin = build();
    const PointD bad_point({bad, 1.0});
    expect_non_finite_rejected([&] { (void)service.insert(bad_point, 9000); }, "insert");
    expect_non_finite_rejected([&] { (void)service.insert_labeled(bad_point, 9000, 2); },
                               "insert_labeled");
    expect_non_finite_rejected([&] { (void)service.insert_target(bad_point, 9000, 9.0); },
                               "insert_target");
    EXPECT_EQ(service.snapshot_epoch(), twin.snapshot_epoch());
    EXPECT_FALSE(service.contains(9000));
    const auto expect_twin_answers = [&](const char* when) {
      for (const PointD& q : make_points(5, 2, rng)) {
        const QueryResult got = service.query(q);
        const QueryResult want = twin.query(q);
        expect_same_keys(want.keys, got.keys, when);
        EXPECT_EQ(got.epoch, want.epoch);
        EXPECT_EQ(service.classify(q).label, twin.classify(q).label);
      }
    };
    expect_twin_answers("after rejected inserts");
    const PointD probe({0.0, 0.0});
    EXPECT_EQ(service.regress(probe).prediction, twin.regress(probe).prediction);

    // Later inserts land on the same machines as the twin's.
    for (PointId id = 9001; id <= 9004; ++id) {
      const PointD p = make_points(1, 2, rng).front();
      EXPECT_EQ(service.insert_labeled(p, id, 2), twin.insert_labeled(p, id, 2));
    }
    for (std::size_t m = 0; m < k; ++m) EXPECT_EQ(service.live_ids_on(m), twin.live_ids_on(m));
    expect_twin_answers("after later inserts");
  }
}

TEST(ServiceErrors, InsertDuplicateIdAndBuilderMisuse) {
  Rng rng(5);
  KnnService live = KnnServiceBuilder()
                        .machines(2)
                        .ell(2)
                        .live()
                        .dataset(make_points(10, 2, rng))
                        .build();
  // The builder assigned ids in [1, n³]; a brand-new id inserts fine, the
  // same id twice is a typed precondition failure.
  const PointD p({0.5, 0.5});
  (void)live.insert(p, 5000);
  EXPECT_THROW((void)live.insert(p, 5000), PreconditionError);

  // A live service with no points and no declared dimension cannot build.
  EXPECT_THROW((void)KnnServiceBuilder().live().build(), ServiceStateError);
  // ...but an explicit dim() makes it a valid empty live service.
  KnnService empty_live = KnnServiceBuilder().machines(2).ell(3).live().dim(2).build();
  EXPECT_EQ(empty_live.total_points(), 0u);
  EXPECT_TRUE(empty_live.query(PointD({1.0, 2.0})).keys.empty());

  // Mismatched payload lengths are builder-time errors.
  EXPECT_THROW((void)KnnServiceBuilder()
                   .dataset(make_points(4, 2, rng))
                   .labels({1, 2})
                   .build(),
               ServiceStateError);
  EXPECT_THROW((void)KnnServiceBuilder().machines(0).dataset({}).build(), ServiceStateError);
}

TEST(ServiceErrors, ScoringApproxIsRejectedAtBuild) {
  // The facade routes the approximate tier by policy and per call; a set
  // scoring.approx would be overwritten on every read path, so build()
  // refuses it instead of answering exactly in silence.
  const std::string text =
      "dknn: ServiceConfig::scoring.approx does not route a KnnService; use "
      "ScoringPolicy::Approx or QueryOptions::approx";
  Rng rng(7);
  BatchScoringConfig scoring;
  scoring.approx = true;
  try {
    (void)KnnServiceBuilder().machines(2).ell(2).scoring(scoring).dataset(make_points(8, 2, rng))
        .build();
    FAIL() << "expected ServiceStateError";
  } catch (const ServiceStateError& e) {
    EXPECT_EQ(std::string(e.what()), text);
  }
  ServiceConfig config;
  config.scoring.approx = true;
  try {
    (void)KnnServiceBuilder().config(config).live().dim(2).build();
    FAIL() << "expected ServiceStateError";
  } catch (const ServiceStateError& e) {
    EXPECT_EQ(std::string(e.what()), text);
  }
}

TEST(ServiceErrors, BadKnnConfigRejectedAtBuild) {
  // Algorithm 2's knobs are checked once, at build(), instead of every
  // query throwing from inside the protocol (or a coefficient reaching an
  // out-of-range double → integer cast).
  Rng rng(6);
  const auto points = make_points(40, 2, rng);
  auto build_with = [&](const KnnConfig& knn) {
    return KnnServiceBuilder().machines(4).ell(3).knn(knn).dataset(points).build();
  };
  auto expect_rejected = [&](const KnnConfig& knn, const std::string& text) {
    try {
      (void)build_with(knn);
      FAIL() << "expected ServiceStateError: " << text;
    } catch (const ServiceStateError& e) {
      EXPECT_EQ(std::string(e.what()), text);
    }
  };
  const std::string leader_text = "dknn: KnnConfig::leader must be less than the machine count";
  const std::string sample_text = "dknn: KnnConfig::sample_coeff must be finite and >= 0";
  const std::string rank_text = "dknn: KnnConfig::rank_coeff must be finite and >= 0";
  expect_rejected(KnnConfig{.leader = 9}, leader_text);
  expect_rejected(KnnConfig{.leader = 4}, leader_text);
  for (double bad : {-12.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    expect_rejected(KnnConfig{.sample_coeff = bad}, sample_text);
    expect_rejected(KnnConfig{.rank_coeff = bad}, rank_text);
  }
  // The machine count of a pre-sharded dataset is its shard count.
  try {
    std::vector<VectorShard> shards(2);
    (void)KnnServiceBuilder().ell(3).knn(KnnConfig{.leader = 2}).dataset_sharded(shards).build();
    FAIL() << "expected ServiceStateError";
  } catch (const ServiceStateError& e) {
    EXPECT_EQ(std::string(e.what()), leader_text);
  }

  // The last machine may lead, and zero coefficients are legal (the counts
  // clamp to 1; KnnPruning.AggressiveRankForcesRetry… runs rank_coeff = 0).
  for (bool finish : {true, false}) {
    KnnService ok = build_with(KnnConfig{.leader = 3,
                                         .sample_coeff = 0.0,
                                         .rank_coeff = 0.0,
                                         .finish_on_full_sample = finish});
    const QueryResult result = ok.query(points[5]);
    ASSERT_EQ(result.keys.size(), 3u);
    EXPECT_EQ(result.keys.front().rank, 0u);  // the query is a dataset point
  }
}

// --- lifecycle behavior ------------------------------------------------------

TEST(ServiceLifecycle, EmptyStaticDatasetAnswersEmpty) {
  KnnService service = KnnServiceBuilder().machines(3).ell(5).dataset({}).build();
  EXPECT_TRUE(service.built());
  EXPECT_FALSE(service.live());
  EXPECT_EQ(service.total_points(), 0u);
  EXPECT_EQ(service.dim(), 0u);
  // Dimension-free: any query is answerable, with an empty answer.
  const QueryResult result = service.query(PointD({1.0, 2.0, 3.0, 4.0}));
  EXPECT_TRUE(result.keys.empty());
  EXPECT_EQ(result.epoch, 0u);
  const BatchQueryResult none = service.query_batch({});
  EXPECT_TRUE(none.per_query.empty());
}

TEST(ServiceLifecycle, EllLargerThanDatasetStaysPermissive) {
  KnnService service = make_static_service(6, 2, 100);
  const QueryResult result = service.query(PointD({0.0, 0.0}));
  EXPECT_EQ(result.keys.size(), 6u);  // min(ℓ, n), like every free path
}

TEST(ServiceLifecycle, LiveMutationAdvancesEpochAndAnswers) {
  Rng rng(11);
  KnnService service = KnnServiceBuilder()
                           .machines(2)
                           .ell(3)
                           .live()
                           .dataset(make_points(40, 2, rng))
                           .build();
  EXPECT_TRUE(service.live());
  EXPECT_EQ(service.total_points(), 40u);

  const std::uint64_t epoch0 = service.snapshot_epoch();
  const PointD target({200.0, 200.0});  // far outside the data box
  const std::uint64_t epoch1 = service.insert(target, 777777);
  EXPECT_GT(epoch1, epoch0);
  EXPECT_EQ(service.total_points(), 41u);

  // The inserted point is immediately the nearest neighbor of itself.
  const QueryResult hit = service.query(target);
  ASSERT_FALSE(hit.keys.empty());
  EXPECT_EQ(hit.keys.front().id, 777777u);
  EXPECT_EQ(hit.epoch, epoch1);

  const auto erased = service.erase(777777);
  ASSERT_TRUE(erased.has_value());
  EXPECT_GT(*erased, epoch1);
  EXPECT_EQ(service.total_points(), 40u);
  EXPECT_FALSE(service.erase(777777).has_value());  // already gone

  const QueryResult after = service.query(target);
  for (const Key& key : after.keys) EXPECT_NE(key.id, 777777u);
}

TEST(ServiceLifecycle, HeldQueryResultIsStableAcrossCompaction) {
  Rng rng(13);
  auto points = make_points(300, 2, rng);
  KnnService service = KnnServiceBuilder()
                           .machines(2)
                           .ell(8)
                           .live(ServeConfig{.seal_threshold = 32})
                           .compaction(CompactionConfig{.max_dead_fraction = 0.01,
                                                        .min_segment_points = 64})
                           .dataset(std::move(points))
                           .build();
  const PointD query({0.0, 0.0});
  const QueryResult held = service.query(query);
  const std::vector<Key> held_keys = held.keys;
  const std::uint64_t held_epoch = held.epoch;

  // Tombstone some of the winners through the facade, then compact.
  std::size_t erased = 0;
  const std::vector<Key> winners = held_keys;
  for (const Key& key : winners) {
    if (service.erase(key.id).has_value()) ++erased;
    if (erased == 4) break;
  }
  ASSERT_GT(erased, 0u);
  const std::uint64_t compacted_epoch = service.compact_now();
  EXPECT_GT(compacted_epoch, held_epoch);
  EXPECT_EQ(service.compaction_debt(), 0u);

  // The held result owns its bytes: nothing moved under it.
  ASSERT_EQ(held.keys.size(), held_keys.size());
  for (std::size_t i = 0; i < held_keys.size(); ++i) {
    EXPECT_EQ(held.keys[i].rank, held_keys[i].rank);
    EXPECT_EQ(held.keys[i].id, held_keys[i].id);
  }
  EXPECT_EQ(held.epoch, held_epoch);

  // And a fresh query reflects the deletions instead.
  const QueryResult fresh = service.query(query);
  EXPECT_EQ(fresh.epoch, compacted_epoch);
  for (std::size_t i = 0; i < std::min<std::size_t>(4, fresh.keys.size()); ++i) {
    EXPECT_NE(fresh.keys[i].id, held_keys[0].id);
  }
}

TEST(ServiceCache, HitsAreByteIdenticalAndEpochKeyed) {
  Rng rng(17);
  KnnService service = KnnServiceBuilder()
                           .machines(2)
                           .ell(4)
                           .cache_capacity(64)
                           .live()
                           .dataset(make_points(60, 3, rng))
                           .build();
  const PointD query({1.0, 2.0, 3.0});
  const QueryResult first = service.query(query);
  EXPECT_FALSE(first.cache_hit);
  const QueryResult second = service.query(query);
  EXPECT_TRUE(second.cache_hit);
  expect_same_keys(first.keys, second.keys, "cache hit");
  EXPECT_EQ(second.epoch, first.epoch);

  // Any mutation advances the epoch; the next lookup recomputes.
  (void)service.insert(PointD({9.0, 9.0, 9.0}), 424242);
  const QueryResult third = service.query(query);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_GT(third.epoch, first.epoch);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_GE(stats.cache_flushes, 1u);  // the epoch advance flushed the cache
}

TEST(ServiceCache, DisabledCacheStillReconcilesStats) {
  // The stats convention (result_cache.hpp): every answer that ran the
  // kernels is a miss, *including* at capacity 0 — hits + misses == queries
  // at every cache configuration, so dashboards never see the counters
  // diverge when someone turns the cache off.
  KnnService service = make_static_service(30, 2, 3, /*cache=*/0);
  const PointD query({1.0, 2.0});
  (void)service.query(query);
  (void)service.query(query);  // identical query: still scored, still a miss
  (void)service.query_batch(std::vector<PointD>{query, PointD({3.0, 4.0})});
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

TEST(ServiceQueryOptions, PerCallEllAndMetricMatchDedicatedService) {
  // A per-call override must answer byte-identically to a service *built*
  // with those knobs — the override changes the effective parameters, not
  // the path.
  Rng rng(41);
  const auto points = make_points(80, 3, rng);
  KnnService canonical = KnnServiceBuilder()
                             .machines(3)
                             .ell(4)
                             .metric(MetricKind::SquaredEuclidean)
                             .dataset(points)
                             .build();
  KnnService dedicated = KnnServiceBuilder()
                             .machines(3)
                             .ell(7)
                             .metric(MetricKind::Manhattan)
                             .dataset(points)
                             .build();
  QueryOptions options;
  options.ell = 7;
  options.metric = MetricKind::Manhattan;
  for (int i = 0; i < 5; ++i) {
    const PointD query = make_points(1, 3, rng)[0];
    const QueryResult overridden = canonical.query(query, options);
    const QueryResult want = dedicated.query(query);
    expect_same_keys(want.keys, overridden.keys, "per-call override");
    EXPECT_EQ(overridden.keys.size(), 7u);
  }
  // ℓ = 0 stays a typed error on the per-call surface too.
  QueryOptions zero;
  zero.ell = 0;
  EXPECT_THROW((void)canonical.query(PointD({0.0, 0.0, 0.0}), zero), InvalidEllError);
}

TEST(ServiceCache, OverriddenCallsNeverCollideWithCanonicalEntries) {
  // The cache key carries (ℓ, metric) alongside the coordinate bits: the
  // same query under different effective parameters is a different entry,
  // and each variant hits only its own.
  Rng rng(43);
  KnnService service = KnnServiceBuilder()
                           .machines(2)
                           .ell(3)
                           .cache_capacity(64)
                           .dataset(make_points(60, 2, rng))
                           .build();
  const PointD query({1.5, -2.5});
  QueryOptions wider;
  wider.ell = 6;
  QueryOptions other_metric;
  other_metric.metric = MetricKind::Chebyshev;

  const QueryResult canonical = service.query(query);
  EXPECT_FALSE(canonical.cache_hit);
  const QueryResult widened = service.query(query, wider);
  EXPECT_FALSE(widened.cache_hit);  // same bits, different ℓ word: distinct key
  EXPECT_EQ(widened.keys.size(), 6u);
  const QueryResult cheby = service.query(query, other_metric);
  EXPECT_FALSE(cheby.cache_hit);  // same bits, different metric word

  const QueryResult canonical_hit = service.query(query);
  EXPECT_TRUE(canonical_hit.cache_hit);
  expect_same_keys(canonical.keys, canonical_hit.keys, "canonical hit");
  EXPECT_EQ(canonical_hit.keys.size(), 3u);
  const QueryResult widened_hit = service.query(query, wider);
  EXPECT_TRUE(widened_hit.cache_hit);
  expect_same_keys(widened.keys, widened_hit.keys, "override hit");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 3u);
}

TEST(ServiceLifecycle, ExplicitServeConfigIsNotClobbered) {
  // live(ServeConfig) hands the store knobs over verbatim; only the plain
  // live() derives them from policy()/leaf_size().
  Rng rng(19);
  KnnService service = KnnServiceBuilder()
                           .machines(2)
                           .ell(2)
                           .policy(ScoringPolicy::Auto)
                           .live(ServeConfig{.seal_threshold = 99,
                                             .policy = ScoringPolicy::Brute,
                                             .leaf_size = 5})
                           .dataset(make_points(30, 2, rng))
                           .build();
  EXPECT_EQ(service.config().serve.policy, ScoringPolicy::Brute);
  EXPECT_EQ(service.config().serve.leaf_size, 5u);
  EXPECT_EQ(service.config().serve.seal_threshold, 99u);

  KnnService derived = KnnServiceBuilder()
                           .machines(2)
                           .ell(2)
                           .policy(ScoringPolicy::Tree)
                           .leaf_size(9)
                           .live()
                           .dim(2)
                           .build();
  EXPECT_EQ(derived.config().serve.policy, ScoringPolicy::Tree);
  EXPECT_EQ(derived.config().serve.leaf_size, 9u);
}

TEST(ServiceLifecycle, StaticStoresTakePolicyKnobsOverServeConfig) {
  // A static dataset has no store knobs of its own: even when config()
  // hands over serve knobs that say Brute, its stores are built from
  // policy()/leaf_size() — one sealed segment per non-empty shard — and
  // stats().tree counts exactly the traversals the same shards' indexes
  // would.
  Rng rng(29);
  const std::vector<PointD> points = make_points(200, 2, rng);
  ServiceConfig config;
  config.machines = 2;
  config.ell = 3;
  config.policy = ScoringPolicy::Tree;
  config.leaf_size = 4;
  config.serve.policy = ScoringPolicy::Brute;
  KnnService service = KnnServiceBuilder().config(config).dataset(points).build();
  const PointD query({0.0, 0.0});
  (void)service.query(query);

  Rng shard_rng(config.seed);
  const auto indexes = make_shard_indexes(
      make_vector_shards(points, config.machines, config.partition, shard_rng),
      ScoringPolicy::Tree, config.leaf_size);
  (void)score_vector_shards_batch(indexes, std::span<const PointD>(&query, 1), config.ell,
                                  config.metric);
  const TreeStats want = tree_stats(indexes);
  const TreeStats got = service.stats().tree;
  EXPECT_GT(got.queries, 0u);
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(got.nodes_visited, want.nodes_visited);
  EXPECT_EQ(got.points_scored, want.points_scored);
  EXPECT_EQ(service.segment_count(), 2u);
  EXPECT_EQ(service.compaction_debt(), 0u);
  EXPECT_EQ(service.snapshot_epoch(), 0u);
}

TEST(ServiceLifecycle, LiveIdsAndContainsExposeResidentMembership) {
  Rng rng(23);
  KnnService service = KnnServiceBuilder()
                           .machines(3)
                           .ell(2)
                           .live()
                           .dataset(make_points(25, 2, rng))
                           .build();
  std::vector<PointId> ids = service.live_ids();
  ASSERT_EQ(ids.size(), 25u);
  for (const PointId id : ids) EXPECT_TRUE(service.contains(id));
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));

  // Builder-loaded points are erasable through the handle.
  ASSERT_TRUE(service.erase(ids.front()).has_value());
  EXPECT_FALSE(service.contains(ids.front()));
  EXPECT_EQ(service.live_ids().size(), 24u);

  // Static services have no mutable membership to probe.
  KnnService fixed = make_static_service(5, 2, 1);
  EXPECT_THROW((void)fixed.contains(1), ServiceStateError);
  EXPECT_THROW((void)fixed.live_ids(), ServiceStateError);
}

TEST(ServiceErrors, UnlabeledWinnerIsATypedPreconditionFailure) {
  // One labeled insert flips classify() open, but an unlabeled resident
  // point winning the vote must fail with the typed error, not an
  // internal engine panic.
  Rng rng(29);
  KnnService service = KnnServiceBuilder()
                           .machines(1)
                           .ell(3)
                           .live()
                           .dataset(make_points(20, 2, rng))  // unlabeled residents
                           .build();
  (void)service.insert_labeled(PointD({1000.0, 1000.0}), 900001, 1);
  EXPECT_THROW((void)service.classify(PointD({0.0, 0.0})), PreconditionError);

  // The scored-batch stage the facade runs raises the same typed error
  // for a winner missing from its machine's table, with a stable text.
  const std::vector<std::vector<std::vector<Key>>> scored = {{{Key{1, 7}, Key{2, 8}}}};
  const std::vector<std::unordered_map<PointId, std::uint32_t>> labels = {{{7, 1}}};
  EXPECT_THROW((void)classify_scored_batch(scored, labels, 2, EngineConfig{}), PreconditionError);
  const auto targets = shared_tables<double>({{{8, 0.5}}});
  EXPECT_THROW((void)regress_scored_batch(scored, targets, 2, EngineConfig{}), PreconditionError);
  try {
    (void)classify_scored_batch(scored, labels, 2, EngineConfig{});
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), "dknn: winner id 8 has no label on its machine");
  }
  try {
    (void)regress_scored_batch(scored, targets, 2, EngineConfig{});
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), "dknn: winner id 7 has no target on its machine");
  }
}

TEST(ServiceLifecycle, LabeledLiveInsertFeedsClassify) {
  KnnService service =
      KnnServiceBuilder().machines(2).ell(1).live().dim(2).cache_capacity(0).build();
  (void)service.insert_labeled(PointD({0.0, 0.0}), 1, 7);
  (void)service.insert_labeled(PointD({10.0, 10.0}), 2, 9);
  (void)service.insert_target(PointD({-5.0, -5.0}), 3, 2.5);
  const ClassifyResult near_origin = service.classify(PointD({0.5, 0.5}));
  EXPECT_EQ(near_origin.label, 7u);
  const ClassifyResult near_far = service.classify(PointD({9.5, 9.5}));
  EXPECT_EQ(near_far.label, 9u);
  const RegressResult reg = service.regress(PointD({-5.0, -5.0}));
  EXPECT_DOUBLE_EQ(reg.prediction, 2.5);
}

// --- the parity anchor -------------------------------------------------------

/// One fuzz dataset, fully determined by its seed.
struct ServiceFuzzCase {
  std::vector<VectorShard> shards;
  std::vector<PointD> queries;
  std::size_t dim = 1;
  std::uint64_t ell = 1;
  std::size_t total = 0;
};

ServiceFuzzCase make_service_case(std::uint64_t seed) {
  Rng rng(seed);
  ServiceFuzzCase fc;
  fc.dim = 1 + static_cast<std::size_t>(rng.below(6));
  const std::size_t k = 1 + static_cast<std::size_t>(rng.below(3));
  std::uint64_t next_id = 1;
  fc.shards.resize(k);
  for (auto& shard : fc.shards) {
    const std::size_t n = rng.bernoulli(0.1) ? 0 : 1 + static_cast<std::size_t>(rng.below(60));
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> coords(fc.dim);
      for (auto& c : coords) {
        // Mix grid and continuous coordinates so exact ties appear.
        c = rng.bernoulli(0.3) ? static_cast<double>(rng.below(4))
                               : rng.uniform01() * 100.0 - 50.0;
      }
      shard.points.emplace_back(std::move(coords));
      shard.ids.push_back(next_id);
      next_id += 1 + rng.below(5);
    }
    fc.total += n;
  }
  const std::size_t num_queries = 1 + static_cast<std::size_t>(rng.below(3));
  for (std::size_t q = 0; q < num_queries; ++q) {
    std::vector<double> coords(fc.dim);
    for (auto& c : coords) c = rng.uniform01() * 100.0 - 50.0;
    fc.queries.emplace_back(std::move(coords));
  }
  switch (rng.below(3)) {
    case 0: fc.ell = 1; break;
    case 1: fc.ell = 1 + rng.below(10); break;
    default: fc.ell = fc.total + 1; break;  // ℓ > n
  }
  return fc;
}

/// Runs one (metric, policy, mode) combination of one case through both
/// surfaces and asserts byte parity of keys plus equality of the protocol
/// telemetry.  One call = one asserted trial.
void run_parity_trial(const ServiceFuzzCase& fc, MetricKind kind, ScoringPolicy policy,
                      bool live_mode) {
  EngineConfig engine;
  engine.seed = 99;

  // Free-function surface: the pre-facade composition.
  std::vector<std::vector<std::vector<Key>>> scored;
  std::vector<std::unique_ptr<SegmentStore>> stores;
  if (live_mode) {
    ServeConfig serve;
    serve.policy = policy;
    std::vector<SnapshotPtr> snapshots;
    for (const auto& shard : fc.shards) {
      auto store = std::make_unique<SegmentStore>(fc.dim, serve);
      if (!shard.points.empty()) {
        store->insert_batch(shard.points, shard.ids);
        store->seal();
      }
      snapshots.push_back(store->snapshot());
      stores.push_back(std::move(store));
    }
    scored = score_serve_snapshots_batch(snapshots, fc.queries, fc.ell, kind, {});
  } else {
    const auto indexes = make_shard_indexes(fc.shards, policy);
    scored = score_vector_shards_batch(indexes, fc.queries, fc.ell, kind, {});
  }
  const BatchRunResult expected =
      run_knn_batch(scored, fc.ell, KnnAlgo::DistKnn, engine);

  // Facade surface: one builder call over the same shards and knobs.
  KnnServiceBuilder builder;
  builder.ell(fc.ell).metric(kind).policy(policy).engine(engine).dim(fc.dim).dataset_sharded(
      fc.shards);
  if (live_mode) builder.live();
  KnnService service = builder.build();
  const BatchQueryResult got = service.query_batch(fc.queries);

  ASSERT_EQ(got.per_query.size(), expected.per_query.size());
  for (std::size_t q = 0; q < fc.queries.size(); ++q) {
    std::ostringstream label;
    label << "query " << q;
    expect_same_keys(expected.per_query[q].keys, got.per_query[q].keys, label.str());
    EXPECT_EQ(got.per_query[q].report.rounds, expected.per_query[q].report.rounds);
    EXPECT_EQ(got.per_query[q].iterations, expected.per_query[q].iterations);
    EXPECT_EQ(got.per_query[q].attempts, expected.per_query[q].attempts);
    EXPECT_EQ(got.per_query[q].candidates, expected.per_query[q].candidates);
    EXPECT_EQ(got.per_query[q].prune_ok, expected.per_query[q].prune_ok);
  }
  EXPECT_EQ(got.report.rounds, expected.report.rounds);
  EXPECT_EQ(got.report.traffic.messages_sent(), expected.report.traffic.messages_sent());
  EXPECT_EQ(got.report.traffic.bits_sent(), expected.report.traffic.bits_sent());
}

TEST(ServiceParityFuzz, ByteIdenticalToFreeFunctionPaths) {
  // 22 seeds × 4 metrics × 3 policies × 2 modes = 528 asserted trials.
  constexpr std::uint64_t kBaseSeed = 0xFACADEULL;
  constexpr std::uint64_t kSeeds = 22;
  std::size_t trials = 0;
  for (std::uint64_t t = 0; t < kSeeds; ++t) {
    const ServiceFuzzCase fc = make_service_case(kBaseSeed + t);
    for (const MetricKind kind : kAllKinds) {
      for (const ScoringPolicy policy : kAllPolicies) {
        for (const bool live_mode : {false, true}) {
          std::ostringstream trace;
          trace << "repro: make_service_case(0x" << std::hex << (kBaseSeed + t) << std::dec
                << ") metric=" << metric_kind_name(kind)
                << " policy=" << scoring_policy_name(policy)
                << (live_mode ? " live" : " static") << " dim=" << fc.dim
                << " total=" << fc.total << " ell=" << fc.ell;
          SCOPED_TRACE(trace.str());
          run_parity_trial(fc, kind, policy, live_mode);
          ++trials;
        }
      }
    }
  }
  EXPECT_GE(trials, 500u);
}

TEST(ServiceParityFuzz, LiveMutationsTrackTheFreeStores) {
  // After a deterministic mutation script applied through the facade and
  // mirrored onto caller-managed stores, both surfaces still agree byte
  // for byte — the facade's round-robin insert routing is part of its
  // contract.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    const ServiceFuzzCase fc = make_service_case(0xC0FFEE00ULL + seed);
    ServeConfig serve;
    serve.policy = ScoringPolicy::Auto;
    serve.seal_threshold = 16;

    // Facade.
    KnnService service = KnnServiceBuilder()
                             .ell(fc.ell)
                             .policy(ScoringPolicy::Auto)
                             .live(serve)
                             .dim(fc.dim)
                             .dataset_sharded(fc.shards)
                             .build();
    // Mirror stores.
    std::vector<std::unique_ptr<SegmentStore>> stores;
    for (const auto& shard : fc.shards) {
      auto store = std::make_unique<SegmentStore>(fc.dim, serve);
      if (!shard.points.empty()) {
        store->insert_batch(shard.points, shard.ids);
        store->seal();
      }
      stores.push_back(std::move(store));
    }

    // Script: a burst of inserts (round-robin, like the facade) and every
    // third pre-existing id erased.
    Rng rng(seed * 31 + 1);
    const auto fresh = make_points(10, fc.dim, rng);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const PointId id = 1000000 + i;
      (void)service.insert(fresh[i], id);
      stores[i % stores.size()]->insert(fresh[i], id);
    }
    std::size_t victim = 0;
    for (const auto& shard : fc.shards) {
      for (const PointId id : shard.ids) {
        if (victim++ % 3 == 0) {
          (void)service.erase(id);
          for (auto& store : stores) {
            if (store->erase(id).has_value()) break;
          }
        }
      }
    }
    (void)service.compact_now();  // structure changes, bytes must not

    std::vector<SnapshotPtr> snapshots;
    for (const auto& store : stores) snapshots.push_back(store->snapshot());
    const auto scored = score_serve_snapshots_batch(snapshots, fc.queries, fc.ell,
                                                    MetricKind::SquaredEuclidean, {});
    EngineConfig engine;
    const BatchRunResult expected = run_knn_batch(scored, fc.ell, KnnAlgo::DistKnn, engine);
    const BatchQueryResult got = service.query_batch(fc.queries);
    ASSERT_EQ(got.per_query.size(), expected.per_query.size());
    for (std::size_t q = 0; q < fc.queries.size(); ++q) {
      expect_same_keys(expected.per_query[q].keys, got.per_query[q].keys, "mutated");
    }
  }
}

TEST(ServiceParityFuzz, AlgoOverrideKeepsExactAnswers) {
  // Every selection algorithm is exact, so the per-call override changes
  // costs but never keys.
  const ServiceFuzzCase fc = make_service_case(0xA160ULL);
  KnnService service =
      KnnServiceBuilder().ell(fc.ell).dim(fc.dim).dataset_sharded(fc.shards).build();
  const BatchQueryResult reference = service.query_batch(fc.queries);
  for (const KnnAlgo algo : {KnnAlgo::CappedSelect, KnnAlgo::Simple, KnnAlgo::SaukasSong,
                             KnnAlgo::BinSearch}) {
    SCOPED_TRACE(knn_algo_name(algo));
    const BatchQueryResult got = service.query_batch(fc.queries, algo);
    for (std::size_t q = 0; q < fc.queries.size(); ++q) {
      expect_same_keys(reference.per_query[q].keys, got.per_query[q].keys, "algo override");
    }
  }
}

// --- mlapi wrappers stay byte-faithful through the facade --------------------

TEST(ServiceMlapi, ClassifyBatchWrapperMatchesFacade) {
  Rng rng(41);
  ServiceFuzzCase fc = make_service_case(0x1ABE1ULL);
  // Positional labels per shard, deterministic from the ids.
  std::vector<std::vector<std::uint32_t>> labels(fc.shards.size());
  for (std::size_t m = 0; m < fc.shards.size(); ++m) {
    for (const PointId id : fc.shards[m].ids) {
      labels[m].push_back(static_cast<std::uint32_t>(id % 5));
    }
  }
  if (fc.total == 0 || fc.ell == 0) return;

  EngineConfig engine;
  const auto wrapper = classify_scored_batch(
      score_vector_shards_batch(make_shard_indexes(fc.shards, ScoringPolicy::Brute), fc.queries,
                                fc.ell, MetricKind::SquaredEuclidean),
      payloads_by_id(fc.shards, labels), fc.ell, engine);

  KnnService service = KnnServiceBuilder()
                           .ell(fc.ell)
                           .engine(engine)
                           .dim(fc.dim)
                           .dataset_sharded(fc.shards)
                           .labels_sharded(labels)
                           .build();
  const auto direct = service.classify_batch(fc.queries);
  ASSERT_EQ(wrapper.size(), direct.size());
  for (std::size_t q = 0; q < wrapper.size(); ++q) {
    EXPECT_EQ(wrapper[q].label, direct[q].label);
    ASSERT_EQ(wrapper[q].votes.size(), direct[q].votes.size());
    expect_same_keys(wrapper[q].run.keys, direct[q].run.keys, "classify wrapper");
  }
}

TEST(ServiceMlapi, RegressBatchStagesMatchFacade) {
  // The facade's regress_batch over dataset_sharded + targets_sharded
  // equals the stages composed by hand: brute indexes → batched scoring →
  // regress_scored_batch.
  std::size_t compared = 0;
  for (std::uint64_t seed = 0x7A46E7ULL; seed < 0x7A46E7ULL + 6; ++seed) {
    const ServiceFuzzCase fc = make_service_case(seed);
    if (fc.total == 0) continue;
    // Positional targets per shard, deterministic from the ids.
    std::vector<std::vector<double>> targets(fc.shards.size());
    for (std::size_t m = 0; m < fc.shards.size(); ++m) {
      for (const PointId id : fc.shards[m].ids) {
        targets[m].push_back(static_cast<double>(id % 7) * 0.75 - 2.0);
      }
    }

    EngineConfig engine;
    engine.seed = seed;
    const auto stages = regress_scored_batch(
        score_vector_shards_batch(make_shard_indexes(fc.shards, ScoringPolicy::Brute),
                                  fc.queries, fc.ell, MetricKind::SquaredEuclidean),
        shared_tables(payloads_by_id(fc.shards, targets)), fc.ell, engine);

    KnnService service = KnnServiceBuilder()
                             .ell(fc.ell)
                             .engine(engine)
                             .dim(fc.dim)
                             .dataset_sharded(fc.shards)
                             .targets_sharded(targets)
                             .build();
    const auto direct = service.regress_batch(fc.queries);
    ASSERT_EQ(stages.size(), direct.size());
    for (std::size_t q = 0; q < stages.size(); ++q) {
      EXPECT_EQ(stages[q].prediction, direct[q].prediction) << "seed " << seed << " query " << q;
      EXPECT_EQ(stages[q].contributions, direct[q].contributions)
          << "seed " << seed << " query " << q;
      expect_same_keys(stages[q].run.keys, direct[q].run.keys, "regress stages");
    }
    EXPECT_EQ(stages[0].run.report.traffic.messages_sent(),
              direct[0].run.report.traffic.messages_sent());
    ++compared;
  }
  EXPECT_GE(compared, 4u);
}

}  // namespace
}  // namespace dknn
