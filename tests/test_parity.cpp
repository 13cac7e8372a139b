// Cross-path parity harness: every local-scoring execution path must
// produce *byte-identical* Key sets — serial brute force, parallel brute
// force (any thread count / tiling), and the kd-tree/FlatStore hybrid, for
// all four metrics, from both shard sources (ShardIndexes and the sealed
// SegmentStore snapshots a static KnnService scores).  Randomized fuzz
// (seeded; the failing trial's seed and shape are logged via SCOPED_TRACE
// so failures replay exactly) plus directed edge cases: d ∈ {1..24}, exact
// distance ties, duplicate points, ℓ ≥ n, ℓ = 0, and empty shards.
//
// Why byte-identical and not "same ids": the distributed algorithms select
// on (distance-rank, id) keys, so a single rank bit that differs between
// paths can flip a selection far downstream.  Pinning bytes here is what
// lets the scoring backend change freely (SIMD passes, new policies)
// without touching any protocol-level test.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/driver.hpp"
#include "data/generators.hpp"
#include "data/kernels.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/kdtree.hpp"
#include "seq/select.hpp"

namespace dknn {
namespace {

using testing_support::reference_top_ell;
using testing_support::sealed_snapshots;

constexpr MetricKind kAllKinds[] = {MetricKind::Euclidean, MetricKind::SquaredEuclidean,
                                    MetricKind::Manhattan, MetricKind::Chebyshev};

/// Thin wrapper over the shared oracle's comparison: folds the (query,
/// shard) slot into the diagnostic label.
void expect_same_keys(const std::vector<Key>& expected, const std::vector<Key>& actual,
                      const char* path, std::size_t q, std::size_t m) {
  std::ostringstream label;
  label << path << " query " << q << " shard " << m;
  testing_support::expect_same_keys(expected, actual, label.str());
}

/// One fuzz trial's dataset + queries, fully determined by its seed.
struct FuzzCase {
  std::vector<VectorShard> shards;
  std::vector<PointD> queries;
  std::size_t dim = 1;
  std::size_t total = 0;
  std::uint64_t ell = 1;
  MetricKind kind = MetricKind::Euclidean;
  bool grid = false;
  std::size_t leaf_size = KdRangeIndex::kDefaultLeafSize;
};

PointD random_point(std::size_t dim, bool grid, Rng& rng) {
  std::vector<double> coords(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    // Grid coordinates force exact distance ties between distinct ids;
    // continuous ones exercise the full rank range.
    coords[j] = grid ? static_cast<double>(rng.below(4)) : rng.uniform01() * 100.0 - 50.0;
  }
  return PointD(std::move(coords));
}

FuzzCase make_case(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase fc;
  fc.dim = 1 + static_cast<std::size_t>(rng.below(24));
  fc.kind = kAllKinds[rng.below(4)];
  fc.grid = rng.bernoulli(0.5);
  fc.leaf_size = 1 + static_cast<std::size_t>(rng.below(64));
  const std::size_t k = 1 + static_cast<std::size_t>(rng.below(4));

  std::uint64_t next_id = 1;
  fc.shards.resize(k);
  for (auto& shard : fc.shards) {
    const std::size_t n =
        rng.bernoulli(0.15) ? 0 : 1 + static_cast<std::size_t>(rng.below(400));
    shard.points.reserve(n);
    shard.ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!shard.points.empty() && rng.bernoulli(0.2)) {
        // Duplicate an existing point under a fresh id: identical distance,
        // different key — selection must break the tie on id alone.
        shard.points.push_back(shard.points[rng.below(shard.points.size())]);
      } else {
        shard.points.push_back(random_point(fc.dim, fc.grid, rng));
      }
      shard.ids.push_back(next_id);
      next_id += 1 + rng.below(5);
    }
    fc.total += n;
  }

  const std::size_t num_queries = 1 + static_cast<std::size_t>(rng.below(6));
  fc.queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    fc.queries.push_back(random_point(fc.dim, fc.grid, rng));
  }

  switch (rng.below(4)) {
    case 0: fc.ell = 1; break;
    case 1: fc.ell = 1 + rng.below(16); break;
    case 2: fc.ell = fc.total; break;                  // ℓ = n (may be 0)
    default: fc.ell = fc.total + 1 + rng.below(8);     // ℓ > n
  }
  if (fc.ell == 0) fc.ell = 1;
  return fc;
}

/// Runs every path over the case and asserts byte parity against the AoS
/// reference for each (query, shard) slot.
void check_all_paths(const FuzzCase& fc) {
  std::vector<std::vector<std::vector<Key>>> expected(fc.queries.size());
  for (std::size_t q = 0; q < fc.queries.size(); ++q) {
    expected[q].reserve(fc.shards.size());
    for (const auto& shard : fc.shards) {
      expected[q].push_back(reference_top_ell(shard, fc.queries[q], fc.kind,
                                              static_cast<std::size_t>(fc.ell)));
    }
  }

  struct Path {
    const char* name;
    ScoringPolicy policy;
    BatchScoringConfig config;
  };
  ThreadPool shared(3);  // caller-owned pool, reused across trials' calls
  BatchScoringConfig shared_config{.query_block = 1};
  shared_config.pool = &shared;
  const Path paths[] = {
      {"serial-brute", ScoringPolicy::Brute, {.threads = 1}},
      {"parallel-brute", ScoringPolicy::Brute, {.threads = 4, .query_block = 1}},
      {"serial-tree", ScoringPolicy::Tree, {.threads = 1}},
      {"parallel-tree", ScoringPolicy::Tree, {.threads = 3, .query_block = 2}},
      {"parallel-auto", ScoringPolicy::Auto, {.threads = 2}},
      {"shared-pool-brute", ScoringPolicy::Brute, shared_config},
      // Point-range subtiles: tiny split thresholds force every brute
      // shard into several row ranges whose top-ℓ lists merge — the split
      // grid must match the unsplit grid (and the AoS oracle) byte for
      // byte.  Auto mixes split brute shards with unsplittable tree shards
      // in one run.
      {"parallel-split-brute", ScoringPolicy::Brute,
       {.threads = 3, .query_block = 1, .shard_split_rows = 16}},
      {"parallel-split-ragged", ScoringPolicy::Brute,
       {.threads = 2, .shard_split_rows = 7}},
      {"parallel-split-auto", ScoringPolicy::Auto,
       {.threads = 4, .query_block = 2, .shard_split_rows = 32}},
  };
  const auto expect_oracle = [&](const std::vector<std::vector<std::vector<Key>>>& got,
                                    const char* name) {
    ASSERT_EQ(got.size(), fc.queries.size());
    for (std::size_t q = 0; q < fc.queries.size(); ++q) {
      ASSERT_EQ(got[q].size(), fc.shards.size());
      for (std::size_t m = 0; m < fc.shards.size(); ++m) {
        expect_same_keys(expected[q][m], got[q][m], name, q, m);
      }
    }
  };
  for (const Path& path : paths) {
    SCOPED_TRACE(path.name);
    const auto indexes = make_shard_indexes(fc.shards, path.policy, fc.leaf_size);
    expect_oracle(
        score_vector_shards_batch(indexes, fc.queries, fc.ell, fc.kind, path.config),
        "shard-indexes");
    // Snapshot source: the same shards sealed into stores, through the
    // same config — split configs split the sole clean segment.
    const ServeConfig serve{.policy = path.policy, .leaf_size = fc.leaf_size};
    expect_oracle(score_serve_snapshots_batch(sealed_snapshots(fc.shards, fc.dim, serve),
                                                fc.queries, fc.ell, fc.kind, path.config),
                    "sealed-stores");
  }
}

void run_trial(std::uint64_t seed) {
  const FuzzCase fc = make_case(seed);
  std::ostringstream trace;
  trace << "repro: run_trial(0x" << std::hex << seed << std::dec << ") — dim=" << fc.dim
        << " metric=" << metric_kind_name(fc.kind) << " shards=" << fc.shards.size()
        << " total=" << fc.total << " ell=" << fc.ell << " queries=" << fc.queries.size()
        << " leaf=" << fc.leaf_size << (fc.grid ? " grid" : " continuous");
  SCOPED_TRACE(trace.str());
  check_all_paths(fc);
}

TEST(ParityFuzz, RandomizedTrials) {
  // Fixed base seed: the suite is deterministic; any failure logs the
  // trial seed for a one-line repro.
  constexpr std::uint64_t kBaseSeed = 0xD15EA5E0ULL;
  for (std::uint64_t t = 0; t < 64; ++t) run_trial(kBaseSeed + t);
}

TEST(ParityFuzz, EveryDimensionEveryMetric) {
  // Directed sweep: d = 1..24 crosses the fixed-dimension kernel table
  // (1..16) into the dynamic fallback (17+); tiny leaf forces deep trees.
  Rng rng(777);
  for (std::size_t dim = 1; dim <= 24; ++dim) {
    for (const MetricKind kind : kAllKinds) {
      FuzzCase fc;
      fc.dim = dim;
      fc.kind = kind;
      fc.leaf_size = 8;
      fc.ell = 9;
      fc.shards.resize(2);
      std::uint64_t next_id = 1;
      for (auto& shard : fc.shards) {
        const std::size_t n = 64 + static_cast<std::size_t>(rng.below(128));
        for (std::size_t i = 0; i < n; ++i) {
          shard.points.push_back(random_point(dim, /*grid=*/false, rng));
          shard.ids.push_back(next_id++);
        }
        fc.total += n;
      }
      fc.queries = {random_point(dim, false, rng), random_point(dim, false, rng)};
      std::ostringstream trace;
      trace << "dim=" << dim << " metric=" << metric_kind_name(kind);
      SCOPED_TRACE(trace.str());
      check_all_paths(fc);
    }
  }
}

TEST(ParityFuzz, AllShardsEmpty) {
  FuzzCase fc;
  fc.dim = 3;
  fc.shards.resize(3);  // three empty shards
  fc.queries = {PointD({1.0, 2.0, 3.0})};
  fc.ell = 5;
  for (const MetricKind kind : kAllKinds) {
    fc.kind = kind;
    SCOPED_TRACE(metric_kind_name(kind));
    check_all_paths(fc);
  }
}

TEST(ParityFuzz, EllZeroYieldsEmptySlots) {
  FuzzCase fc = make_case(0xE11ULL);
  fc.ell = 0;  // make_case never produces 0; force it
  const auto indexes = make_shard_indexes(fc.shards, ScoringPolicy::Tree, fc.leaf_size);
  const auto got = score_vector_shards_batch(indexes, fc.queries, 0, fc.kind,
                                             BatchScoringConfig{.threads = 2});
  for (const auto& per_shard : got) {
    for (const auto& keys : per_shard) EXPECT_TRUE(keys.empty());
  }
}

TEST(ParityFuzz, DuplicateSaturatedShard) {
  // Every point identical: all ranks equal, selection is purely id order.
  FuzzCase fc;
  fc.dim = 4;
  fc.leaf_size = 4;
  fc.shards.resize(1);
  auto& shard = fc.shards[0];
  const PointD p({1.5, -2.5, 3.5, 0.0});
  for (std::size_t i = 0; i < 300; ++i) {
    shard.points.push_back(p);
    shard.ids.push_back(1000 - 3 * i);  // descending, non-contiguous ids
  }
  fc.total = 300;
  fc.queries = {PointD({0.0, 0.0, 0.0, 0.0}), p};
  fc.ell = 17;
  for (const MetricKind kind : kAllKinds) {
    fc.kind = kind;
    SCOPED_TRACE(metric_kind_name(kind));
    check_all_paths(fc);
  }
}

TEST(ParityFuzz, GiantShardSplitsByteIdenticalToUnsplitGrid) {
  // The ROADMAP case the splitter exists for: one huge shard next to tiny
  // ones.  Split at several thresholds (including one that leaves a
  // remainder range) and compare directly against the unsplit parallel
  // grid and the serial scan.
  Rng rng(0x51A6EULL);
  FuzzCase fc;
  fc.dim = 6;
  fc.ell = 23;
  fc.shards.resize(3);
  std::uint64_t next_id = 1;
  const std::size_t sizes[] = {5000, 40, 0};
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t i = 0; i < sizes[m]; ++i) {
      fc.shards[m].points.push_back(random_point(fc.dim, /*grid=*/false, rng));
      fc.shards[m].ids.push_back(next_id++);
    }
    fc.total += sizes[m];
  }
  for (std::size_t q = 0; q < 4; ++q) {
    fc.queries.push_back(random_point(fc.dim, false, rng));
  }

  const auto indexes = make_shard_indexes(fc.shards, ScoringPolicy::Brute);
  const auto snapshots =
      sealed_snapshots(fc.shards, fc.dim, ServeConfig{.policy = ScoringPolicy::Brute});
  const auto unsplit = score_vector_shards_batch(indexes, fc.queries, fc.ell, fc.kind,
                                                 BatchScoringConfig{.threads = 3});
  for (const std::size_t split : {4096u, 1000u, 777u, 23u}) {
    SCOPED_TRACE(split);
    const BatchScoringConfig config{.threads = 3, .shard_split_rows = split};
    const auto got = score_vector_shards_batch(indexes, fc.queries, fc.ell, fc.kind, config);
    // Snapshot source: the giant shard is one clean sealed segment, so it
    // splits the same way.
    const auto from_stores =
        score_serve_snapshots_batch(snapshots, fc.queries, fc.ell, fc.kind, config);
    for (std::size_t q = 0; q < fc.queries.size(); ++q) {
      for (std::size_t m = 0; m < fc.shards.size(); ++m) {
        expect_same_keys(unsplit[q][m], got[q][m], "split-grid", q, m);
        expect_same_keys(unsplit[q][m], from_stores[q][m], "split-stores", q, m);
      }
    }
  }
}

TEST(ParityFuzz, ParallelRunsAreIdenticalRunToRun) {
  // Schedule independence: many parallel runs of one case must agree bit
  // for bit (slots are pre-sized and disjoint, so this holds by
  // construction — this test is the tripwire if that design ever slips).
  const FuzzCase fc = make_case(0xBEEFULL);
  const auto indexes = make_shard_indexes(fc.shards, ScoringPolicy::Auto, fc.leaf_size);
  const BatchScoringConfig config{.threads = 4, .query_block = 1};
  const auto first = score_vector_shards_batch(indexes, fc.queries, fc.ell, fc.kind, config);
  for (int run = 0; run < 8; ++run) {
    const auto again = score_vector_shards_batch(indexes, fc.queries, fc.ell, fc.kind, config);
    ASSERT_EQ(first.size(), again.size());
    for (std::size_t q = 0; q < first.size(); ++q) {
      for (std::size_t m = 0; m < first[q].size(); ++m) {
        expect_same_keys(first[q][m], again[q][m], "rerun", q, m);
      }
    }
  }
}

}  // namespace
}  // namespace dknn
