// Tests for the approximate search tier (src/ann/): NN-descent bulk
// builds and Debatty-style online inserts hit their recall targets
// against the brute-force oracle; erase tombstones are never returned;
// the exact rerank is bit-stable given the candidate set (and across
// ISAs); GraphSlot builds lazily exactly once; the serve integration
// (ScoringPolicy::Approx snapshots) survives an insert/erase/seal/compact
// churn fuzz with delta-buffer points always exact and deleted ids never
// resurfacing; and the KnnService facade routes QueryOptions::approx with
// cache-key separation from exact answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "ann/graph_search.hpp"
#include "ann/knn_graph.hpp"
#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/kernels.hpp"
#include "data/simd/dispatch.hpp"
#include "obs/metrics.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/select.hpp"
#include "serve/segment_store.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;

/// |answer ∩ oracle| / |oracle|, matched by id.
double recall_of(const std::vector<Key>& answer, const std::vector<Key>& oracle) {
  if (oracle.empty()) return 1.0;
  std::unordered_set<PointId> truth;
  for (const Key& k : oracle) truth.insert(k.id);
  std::size_t hit = 0;
  for (const Key& k : answer) hit += truth.count(k.id);
  return static_cast<double>(hit) / static_cast<double>(oracle.size());
}

FlatStore make_store(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PointD> points = uniform_points(n, dim, 100.0, rng);
  std::vector<PointId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<PointId>(i + 1);
  return FlatStore(points, ids);
}

TEST(AnnGraph, BulkBuildRecall) {
  const std::size_t n = 4000, dim = 8, ell = 16;
  const FlatStore store = make_store(n, dim, 7);
  ann::AnnConfig config;
  config.min_points = 0;
  const ann::KnnGraph graph(store, config);
  EXPECT_EQ(graph.covered(), n);
  EXPECT_EQ(graph.degree(), config.degree);
  EXPECT_GE(graph.build_iterations(), 1u);

  Rng rng(11);
  std::vector<PointD> queries = uniform_points(64, dim, 100.0, rng);
  ann::AnnSearchScratch scratch;
  KernelScratch kernel_scratch;
  double recall_sum = 0.0;
  for (const PointD& q : queries) {
    std::vector<Key> approx;
    ann::ann_top_ell(graph, q, ell, config.ef, config.metric, nullptr, approx, scratch,
                     kernel_scratch);
    const std::vector<Key> exact =
        fused_top_ell(store, q, ell, config.metric);
    recall_sum += recall_of(approx, exact);
    // Ranks are exact for whatever rows the walk surfaced: every returned
    // key must literally appear in the exact ranking of the whole store.
    std::vector<Key> full = fused_top_ell(store, q, n, config.metric);
    for (const Key& k : approx) {
      EXPECT_TRUE(std::find_if(full.begin(), full.end(), [&](const Key& f) {
                    return f.id == k.id && f.rank == k.rank;
                  }) != full.end());
    }
  }
  EXPECT_GE(recall_sum / static_cast<double>(queries.size()), 0.9);
}

TEST(AnnGraph, RerankIsExactGivenCandidates) {
  const std::size_t n = 2000, dim = 6, ell = 12;
  const FlatStore store = make_store(n, dim, 21);
  ann::AnnConfig config;
  const ann::KnnGraph graph(store, config);

  Rng rng(22);
  const std::vector<PointD> queries = uniform_points(16, dim, 100.0, rng);
  ann::AnnSearchScratch scratch;
  KernelScratch kernel_scratch;
  for (const PointD& q : queries) {
    // The candidate set the search will rerank, captured independently.
    std::vector<ann::AnnCandidate> cands;
    ann::ann_search_candidates(graph, q, std::max<std::size_t>(config.ef, ell), config.metric,
                               nullptr, cands, scratch);
    std::vector<Key> expected;
    {
      RangeTopEll scorer(store, q, ell, config.metric, kernel_scratch);
      std::vector<std::uint32_t> rows;
      for (const ann::AnnCandidate& c : cands) rows.push_back(c.row);
      std::sort(rows.begin(), rows.end());
      for (const std::uint32_t row : rows) scorer.score_range(row, row + 1);
      scorer.finish(expected);
    }
    std::vector<Key> actual;
    ann::ann_top_ell(graph, q, ell, config.ef, config.metric, nullptr, actual, scratch,
                     kernel_scratch);
    expect_same_keys(expected, actual, "rerank vs manual RangeTopEll over candidates");
  }
}

TEST(AnnGraph, FullBeamDegradesToExact) {
  // With ef ≥ n the walk can keep every live row it ever scores, so on a
  // connected graph the answer equals the brute scan, byte for byte.
  const std::size_t n = 500, dim = 4, ell = 10;
  const FlatStore store = make_store(n, dim, 33);
  ann::AnnConfig config;
  const ann::KnnGraph graph(store, config);
  Rng rng(34);
  ann::AnnSearchScratch scratch;
  KernelScratch kernel_scratch;
  for (const PointD& q : uniform_points(8, dim, 100.0, rng)) {
    std::vector<Key> approx;
    ann::ann_top_ell(graph, q, ell, n, config.metric, nullptr, approx, scratch,
                     kernel_scratch);
    const std::vector<Key> exact = fused_top_ell(store, q, ell, config.metric);
    expect_same_keys(exact, approx, "ef = n beam");
  }
}

TEST(AnnGraph, OnlineInsertRecall) {
  const std::size_t n = 2000, dim = 8, ell = 16;
  const FlatStore store = make_store(n, dim, 55);
  ann::AnnConfig config;
  ann::KnnGraph graph(store, config, ann::KnnGraph::OnlineTag::Online);
  EXPECT_EQ(graph.covered(), 0u);
  for (std::uint32_t row = 0; row < n; ++row) graph.insert(row);
  EXPECT_EQ(graph.covered(), n);

  Rng rng(56);
  ann::AnnSearchScratch scratch;
  KernelScratch kernel_scratch;
  double recall_sum = 0.0;
  const std::vector<PointD> queries = uniform_points(48, dim, 100.0, rng);
  for (const PointD& q : queries) {
    std::vector<Key> approx;
    ann::ann_top_ell(graph, q, ell, config.ef, config.metric, nullptr, approx, scratch,
                     kernel_scratch);
    recall_sum +=
        recall_of(approx, fused_top_ell(store, q, ell, config.metric));
  }
  EXPECT_GE(recall_sum / static_cast<double>(queries.size()), 0.85);
}

TEST(AnnGraph, EraseTombstonesNeverReturned) {
  const std::size_t n = 1500, dim = 8, ell = 16;
  const FlatStore store = make_store(n, dim, 77);
  ann::AnnConfig config;
  ann::KnnGraph graph(store, config);

  Rng rng(78);
  std::unordered_set<std::uint32_t> dead_rows;
  while (dead_rows.size() < n / 4) {
    const auto row = static_cast<std::uint32_t>(rng.below(n));
    graph.erase(row);
    graph.erase(row);  // idempotent
    dead_rows.insert(row);
  }
  EXPECT_EQ(graph.dead_count(), dead_rows.size());

  // Oracle over the survivors only.
  std::vector<PointD> live_points;
  std::vector<PointId> live_ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (dead_rows.count(i) != 0) continue;
    live_points.push_back(store.point(i));
    live_ids.push_back(store.id(i));
  }
  const FlatStore live_store(live_points, live_ids);

  ann::AnnSearchScratch scratch;
  KernelScratch kernel_scratch;
  double recall_sum = 0.0;
  const std::vector<PointD> queries = uniform_points(32, dim, 100.0, rng);
  for (const PointD& q : queries) {
    std::vector<Key> approx;
    ann::ann_top_ell(graph, q, ell, config.ef, config.metric, nullptr, approx, scratch,
                     kernel_scratch);
    for (const Key& k : approx) {
      EXPECT_EQ(dead_rows.count(static_cast<std::uint32_t>(k.id - 1)), 0u)
          << "tombstoned id " << k.id << " surfaced";
    }
    recall_sum +=
        recall_of(approx, fused_top_ell(live_store, q, ell, config.metric));
  }
  EXPECT_GE(recall_sum / static_cast<double>(queries.size()), 0.85);
}

TEST(AnnGraph, CrossIsaParity) {
  // Graph construction and the beam walk score through the SIMD dispatch
  // table, whose ISAs are byte-identical by contract (test_simd_parity) —
  // so forced-scalar answers must equal dispatched answers bit for bit.
  const std::size_t n = 1200, dim = 8, ell = 12;
  const FlatStore store = make_store(n, dim, 91);
  ann::AnnConfig config;
  Rng rng(92);
  const std::vector<PointD> queries = uniform_points(16, dim, 100.0, rng);

  std::vector<std::vector<Key>> dispatched;
  {
    const ann::KnnGraph graph(store, config);
    ann::AnnSearchScratch scratch;
    KernelScratch kernel_scratch;
    for (const PointD& q : queries) {
      std::vector<Key> keys;
      ann::ann_top_ell(graph, q, ell, config.ef, config.metric, nullptr, keys, scratch,
                       kernel_scratch);
      dispatched.push_back(std::move(keys));
    }
  }
  {
    simd::ScopedForceIsa forced(simd::Isa::Scalar);
    const ann::KnnGraph graph(store, config);
    ann::AnnSearchScratch scratch;
    KernelScratch kernel_scratch;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::vector<Key> keys;
      ann::ann_top_ell(graph, queries[i], ell, config.ef, config.metric, nullptr, keys,
                       scratch, kernel_scratch);
      expect_same_keys(dispatched[i], keys, "scalar vs dispatched ann answer");
    }
  }
}

TEST(AnnGraph, GraphSlotBuildsLazilyOnce) {
  const FlatStore store = make_store(600, 4, 13);
  ann::AnnConfig config;
  ann::GraphSlot slot(config);
  EXPECT_EQ(slot.peek(), nullptr);
  const ann::KnnGraph& first = slot.get_or_build(store);
  EXPECT_EQ(slot.peek(), &first);
  const ann::KnnGraph& second = slot.get_or_build(store);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.covered(), store.size());
}

// --- serve integration -------------------------------------------------------

ServeConfig approx_serve_config(std::size_t seal_threshold, std::size_t min_points) {
  ServeConfig serve;
  serve.seal_threshold = seal_threshold;
  serve.policy = ScoringPolicy::Approx;
  serve.ann.min_points = min_points;
  serve.ann.ef = 128;
  return serve;
}

std::vector<Key> oracle_top_ell(const std::vector<PointD>& points,
                                const std::vector<PointId>& ids, const PointD& query,
                                std::size_t ell, MetricKind kind) {
  const FlatStore store(points, ids);
  return fused_top_ell(store, query, ell, kind);
}

TEST(AnnServe, ChurnFuzzRecallAndTombstones) {
  // Insert/erase/seal/compact churn against the brute oracle: approximate
  // snapshots never resurrect a deleted id, delta-buffer (unsealed) points
  // are always exact candidates, and recall@ℓ stays ≥ 0.9 every epoch.
  const std::size_t dim = 6, ell = 12;
  const MetricKind kind = MetricKind::SquaredEuclidean;
  SegmentStore store(dim, approx_serve_config(192, 64));
  const CompactionConfig compaction;

  Rng rng(1234);
  std::vector<PointD> live_points;
  std::vector<PointId> live_ids;
  std::unordered_set<PointId> erased;
  PointId next_id = 1;
  KernelScratch scratch;

  for (std::size_t step = 0; step < 1200; ++step) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 70 || live_ids.empty()) {
      PointD p = uniform_points(1, dim, 100.0, rng)[0];
      store.insert(p, next_id);
      live_points.push_back(std::move(p));
      live_ids.push_back(next_id);
      ++next_id;
    } else if (roll < 90) {
      const std::size_t victim = rng.below(live_ids.size());
      ASSERT_TRUE(store.erase(live_ids[victim]).has_value());
      erased.insert(live_ids[victim]);
      live_points[victim] = std::move(live_points.back());
      live_points.pop_back();
      live_ids[victim] = live_ids.back();
      live_ids.pop_back();
    } else if (roll < 95) {
      store.seal();
    } else {
      const SegmentStore::CompactionPlan plan = store.plan_compaction(compaction);
      if (!plan.empty()) {
        store.install_compaction(plan, SegmentStore::merge_segments(plan.victims,
                                                                    store.config()));
      }
    }

    if (step % 60 != 0) continue;
    const SnapshotPtr snap = store.snapshot();
    const std::vector<PointD> queries = uniform_points(4, dim, 100.0, rng);
    std::vector<std::vector<Key>> answers;
    snapshot_approx_top_ell_batch(*snap, queries, ell, kind, answers, scratch);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      for (const Key& k : answers[qi]) {
        EXPECT_EQ(erased.count(k.id), 0u) << "deleted id " << k.id << " resurfaced";
      }
      const std::vector<Key> oracle =
          oracle_top_ell(live_points, live_ids, queries[qi], ell, kind);
      EXPECT_GE(recall_of(answers[qi], oracle), 0.9)
          << "step " << step << " query " << qi;
    }
  }

  // Delta-buffer rows are always candidates: a query sitting exactly on an
  // unsealed point must return that point first.
  store.seal();
  PointD fresh = uniform_points(1, dim, 100.0, rng)[0];
  store.insert(fresh, next_id);
  const SnapshotPtr snap = store.snapshot();
  std::vector<std::vector<Key>> answers;
  snapshot_approx_top_ell_batch(*snap, std::span<const PointD>(&fresh, 1), ell, kind, answers,
                                scratch);
  ASSERT_FALSE(answers[0].empty());
  EXPECT_EQ(answers[0][0].id, next_id);
  EXPECT_EQ(answers[0][0].rank, 0u);
}

TEST(AnnServe, RunningHeapMatchesPooledSegmentAnswers) {
  // Two graph segments (one tombstoned), a sealed segment below
  // min_points (scored exactly) and an unsealed delta: the snapshot's one
  // running selection must equal each segment's own approx answer, pooled
  // and re-selected.
  const std::size_t dim = 6;
  SegmentStore store(dim, approx_serve_config(96, 64));
  Rng rng(58);
  PointId next_id = 1;
  const auto insert = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      store.insert(uniform_points(1, dim, 100.0, rng)[0], next_id++);
    }
  };
  insert(192);  // two 96-row graph segments
  insert(40);
  store.seal();  // a 40-row segment, below min_points
  insert(11);    // the delta
  for (PointId id = 3; id <= 96; id += 5) ASSERT_TRUE(store.erase(id).has_value());
  const SnapshotPtr snap = store.snapshot();
  ASSERT_EQ(snap->segments.size(), 4u);
  ASSERT_NE(snap->segments[0].data->ann, nullptr);
  ASSERT_NE(snap->segments[1].data->ann, nullptr);
  ASSERT_GT(snap->segments[0].dead_count, 0u);
  ASSERT_EQ(snap->segments[2].data->ann, nullptr);
  ASSERT_EQ(snap->segments[3].rows(), 11u);

  const std::vector<PointD> queries = uniform_points(9, dim, 100.0, rng);
  KernelScratch scratch;
  std::vector<std::vector<Key>> got;
  std::vector<std::vector<Key>> keys;
  for (const MetricKind kind : {MetricKind::SquaredEuclidean, MetricKind::Manhattan}) {
    for (const std::size_t ell : {std::size_t{1}, std::size_t{12}, snap->live_points + 3}) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{9}}) {
        const std::span<const PointD> block(queries.data(), batch);
        std::vector<std::vector<Key>> pooled(batch);
        for (const SegmentView& seg : snap->segments) {
          shard_top_ell_batch(*seg.data, seg.dead_count == 0 ? nullptr : seg.dead->data(),
                              block, ell, kind, /*approx=*/true, keys, scratch);
          for (std::size_t q = 0; q < batch; ++q) {
            pooled[q].insert(pooled[q].end(), keys[q].begin(), keys[q].end());
          }
        }
        snapshot_approx_top_ell_batch(*snap, block, ell, kind, got, scratch);
        ASSERT_EQ(got.size(), batch);
        for (std::size_t q = 0; q < batch; ++q) {
          const std::string label = std::string(metric_kind_name(kind)) + " ell=" +
                                    std::to_string(ell) + " batch=" + std::to_string(batch) +
                                    " q=" + std::to_string(q);
          expect_same_keys(top_ell_smallest(std::span<const Key>(pooled[q]), ell), got[q],
                           label);
        }
      }
    }
  }
}

TEST(AnnServe, ConcurrentApproxReadsDuringChurn) {
  // Lazy graph builds race snapshot readers while a writer churns — the
  // TSan leg runs this; correctness assert is "no deleted id surfaces".
  const std::size_t dim = 4, ell = 8;
  SegmentStore store(dim, approx_serve_config(128, 32));
  Rng seed_rng(777);
  {
    std::vector<PointD> points = uniform_points(512, dim, 100.0, seed_rng);
    std::vector<PointId> ids(points.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PointId>(i + 1);
    store.insert_batch(points, ids);
    store.seal();
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  // A prefix of ids 1..512 is erased by the writer; ids ≥ 513 are fresh
  // inserts.
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&store, &stop, &failed, t, dim, ell] {
      Rng rng(9000 + static_cast<std::uint64_t>(t));
      KernelScratch scratch;
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotPtr snap = store.snapshot();
        const std::vector<PointD> queries = uniform_points(2, dim, 100.0, rng);
        std::vector<std::vector<Key>> answers;
        snapshot_approx_top_ell_batch(*snap, queries, ell, MetricKind::SquaredEuclidean,
                                      answers, scratch);
        for (const auto& keys : answers) {
          for (const Key& k : keys) {
            if (k.id == 0) failed.store(true, std::memory_order_release);
          }
        }
      }
    });
  }
  Rng rng(4242);
  PointId next_id = 513;
  std::unordered_set<PointId> erased;
  for (std::size_t step = 0; step < 400; ++step) {
    if (step % 3 == 0 && step / 3 < 256) {
      const auto victim = static_cast<PointId>(step / 3 + 1);
      store.erase(victim);
      erased.insert(victim);
    } else {
      store.insert(uniform_points(1, dim, 100.0, rng)[0], next_id++);
    }
    if (step % 100 == 99) store.seal();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  // Erased ids must be gone from a quiescent approx answer.
  KernelScratch scratch;
  const SnapshotPtr snap = store.snapshot();
  std::vector<PointD> probes = uniform_points(8, dim, 100.0, rng);
  std::vector<std::vector<Key>> answers;
  snapshot_approx_top_ell_batch(*snap, probes, 32, MetricKind::SquaredEuclidean, answers,
                                scratch);
  for (const auto& keys : answers) {
    for (const Key& k : keys) EXPECT_EQ(erased.count(k.id), 0u);
  }
}

// --- facade routing ----------------------------------------------------------

TEST(AnnService, StaticApproxRoutingAndCacheSeparation) {
  const std::size_t n = 6000, dim = 8;
  Rng rng(31);
  std::vector<PointD> points = uniform_points(n, dim, 100.0, rng);
  ann::AnnConfig ann_config;
  ann_config.min_points = 1024;
  KnnService svc = KnnServiceBuilder()
                       .machines(2)
                       .ell(16)
                       .policy(ScoringPolicy::Approx)
                       .ann(ann_config)
                       .cache_capacity(64)
                       .dataset(std::move(points))
                       .build();
  KnnService exact_svc = KnnServiceBuilder()
                             .machines(2)
                             .ell(16)
                             .policy(ScoringPolicy::Brute)
                             .seed(1)  // same partition as svc (default seed)
                             .dataset([&] {
                               Rng r(31);
                               return uniform_points(n, dim, 100.0, r);
                             }())
                             .build();

  const std::vector<PointD> queries = uniform_points(24, dim, 100.0, rng);
  double recall_sum = 0.0;
  for (const PointD& q : queries) {
    const QueryResult approx = svc.query(q);
    const QueryResult exact = exact_svc.query(q);
    recall_sum += recall_of(approx.keys, exact.keys);
  }
  EXPECT_GE(recall_sum / static_cast<double>(queries.size()), 0.9);

  // Per-call routing between tiers on one service, and cache separation:
  // the exact override must not be served the cached approx answer.
  QueryOptions force_exact;
  force_exact.approx = false;
  const QueryResult exact_on_approx_svc = svc.query(queries[0], force_exact);
  const QueryResult reference = exact_svc.query(queries[0]);
  expect_same_keys(reference.keys, exact_on_approx_svc.keys,
                   "approx=false override on an Approx-policy service");
  const QueryResult exact_again = svc.query(queries[0], force_exact);
  EXPECT_TRUE(exact_again.cache_hit);
  expect_same_keys(reference.keys, exact_again.keys, "cached exact override");
}

TEST(AnnService, ClassifyFollowsTheApproxPolicy) {
  // One decision routes every read path: on an Approx-policy service
  // classify_batch beam-searches the graphs exactly like query_batch.
  const std::size_t n = 6000, dim = 8;
  Rng rng(53);
  std::vector<PointD> points = uniform_points(n, dim, 100.0, rng);
  std::vector<std::uint32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<std::uint32_t>(i % 5);
  ann::AnnConfig ann_config;
  ann_config.min_points = 1024;
  KnnService svc = KnnServiceBuilder()
                       .machines(2)
                       .ell(16)
                       .policy(ScoringPolicy::Approx)
                       .ann(ann_config)
                       .dataset(std::move(points))
                       .labels(std::move(labels))
                       .build();
  const std::vector<PointD> queries = uniform_points(8, dim, 100.0, rng);
  const obs::Counter& searches = obs::registry().counter("dknn_ann_searches_total");
  const std::uint64_t before = searches.value();
  const std::vector<ClassifyResult> votes = svc.classify_batch(queries);
  EXPECT_GT(searches.value(), before);
  const BatchQueryResult answers = svc.query_batch(queries);
  ASSERT_EQ(votes.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<Key> vote_keys;
    for (const auto& [key, label] : votes[q].votes) vote_keys.push_back(key);
    expect_same_keys(answers.per_query[q].keys, vote_keys, "classify vs query_batch");
  }
}

TEST(AnnService, LiveApproxNeverReturnsErased) {
  const std::size_t dim = 6;
  ann::AnnConfig ann_config;
  ann_config.min_points = 64;
  Rng rng(47);
  std::vector<PointD> points = uniform_points(1500, dim, 100.0, rng);
  KnnService svc = KnnServiceBuilder()
                       .machines(2)
                       .ell(12)
                       .policy(ScoringPolicy::Approx)
                       .ann(ann_config)
                       .live()
                       .dataset(std::move(points))
                       .build();
  std::vector<PointId> ids = svc.live_ids();
  std::unordered_set<PointId> erased;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(svc.erase(ids[i]).has_value());
    erased.insert(ids[i]);
  }
  for (const PointD& q : uniform_points(16, dim, 100.0, rng)) {
    const QueryResult result = svc.query(q);
    for (const Key& k : result.keys) {
      EXPECT_EQ(erased.count(k.id), 0u) << "erased id " << k.id << " in approx answer";
    }
  }
}

}  // namespace
}  // namespace dknn
