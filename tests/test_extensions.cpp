// Tests for the extension features: Hamming-space kNN, the paper's
// footnote-4 approximate-distance scaling, the GaussianMixture train/test
// API, and the cluster (shared-NIC) network model end-to-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include "core/driver.hpp"
#include "core/mlapi.hpp"
#include "data/generators.hpp"
#include "data/key.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace dknn {
namespace {

EngineConfig engine_for(std::uint64_t seed) {
  EngineConfig c;
  c.seed = seed;
  c.measure_compute = false;
  return c;
}

// --- Hamming-space kNN ---------------------------------------------------------

TEST(Hamming, MatchesBruteForce) {
  constexpr std::uint32_t k = 8;
  Rng rng(1);
  std::vector<Value> patterns;
  for (int i = 0; i < 1000; ++i) patterns.push_back(rng.next_u64());
  auto shards = make_scalar_shards(std::move(patterns), k, PartitionScheme::Random, rng);
  const Value query = rng.next_u64();
  auto scored = score_hamming_shards(shards, query);
  for (std::uint64_t ell : {1u, 16u, 128u}) {
    const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(ell));
    EXPECT_EQ(result.keys, expected_smallest(scored, ell)) << "ell=" << ell;
  }
}

TEST(Hamming, DistancesAreInWordRange) {
  Rng rng(2);
  std::vector<Value> patterns;
  for (int i = 0; i < 100; ++i) patterns.push_back(rng.next_u64());
  ScalarShard shard;
  shard.values = patterns;
  Rng id_rng(3);
  shard.ids = assign_random_ids(patterns.size(), id_rng);
  const auto keys = score_hamming_shard(shard, rng.next_u64());
  for (const auto& key : keys) EXPECT_LE(key.rank, 64u);
}

TEST(Hamming, MassiveTiesAreStillExact) {
  // Distances take at most 65 values; with 2000 points nearly every
  // distance has hundreds of ties, all broken by id.
  constexpr std::uint32_t k = 16;
  Rng rng(4);
  std::vector<Value> patterns;
  for (int i = 0; i < 2000; ++i) patterns.push_back(rng.next_u64() & 0xFF);  // 8-bit space
  auto shards = make_scalar_shards(std::move(patterns), k, PartitionScheme::Random, rng);
  auto scored = score_hamming_shards(shards, 0x0F);
  const auto result = run_knn(scored, 500, KnnAlgo::DistKnn, engine_for(5));
  EXPECT_EQ(result.keys, expected_smallest(scored, 500));
  EXPECT_EQ(result.keys.size(), 500u);
}

TEST(Hamming, NearestOfIdenticalPatternIsDistanceZero) {
  Rng rng(6);
  std::vector<Value> patterns = {0xDEADBEEF, 0xCAFEBABE, 0x12345678};
  auto shards = make_scalar_shards(std::move(patterns), 2, PartitionScheme::RoundRobin, rng);
  auto scored = score_hamming_shards(shards, 0xCAFEBABE);
  const auto result = run_knn(scored, 1, KnnAlgo::DistKnn, engine_for(7));
  ASSERT_EQ(result.keys.size(), 1u);
  EXPECT_EQ(result.keys[0].rank, 0u);
}

// --- footnote-4 approximate distances --------------------------------------------

TEST(Quantize, ClearsLowBits) {
  EXPECT_EQ(quantize_rank(0b11111111, 4), 0b11110000u);
  EXPECT_EQ(quantize_rank(12345, 0), 12345u);
  EXPECT_EQ(quantize_rank(~0ULL, 63), 1ULL << 63);
}

TEST(Quantize, RejectsDroppingEverything) {
  EXPECT_THROW((void)quantize_rank(1, 64), InvariantError);
}

TEST(Quantize, PreservesWeakOrder) {
  Rng rng(8);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t a = rng.next_u64(), b = rng.next_u64();
    if (a <= b) {
      EXPECT_LE(quantize_rank(a, 16), quantize_rank(b, 16));
    }
  }
}

TEST(Quantize, ApproximationGuarantee) {
  // Selecting on quantized keys returns points whose TRUE distance exceeds
  // the exact ell-th distance by less than one quantization step.
  constexpr std::uint32_t k = 8;
  constexpr std::uint64_t ell = 50;
  constexpr unsigned drop = 12;
  Rng rng(9);
  auto values = uniform_u64(2000, rng);
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::Random, rng);
  for (std::uint64_t qseed = 0; qseed < 5; ++qseed) {
    Rng qrng = rng.split(qseed);
    const Value query = qrng.between(0, (1ULL << 32) - 1);
    auto exact = score_scalar_shards(shards, query);
    auto coarse = quantize_scored_shards(exact, drop);

    const auto result = run_knn(coarse, ell, KnnAlgo::DistKnn, engine_for(qseed));
    ASSERT_EQ(result.keys.size(), ell);

    // true distance of each returned id
    std::map<PointId, std::uint64_t> true_rank;
    for (const auto& shard : exact) {
      for (const auto& key : shard) true_rank[key.id] = key.rank;
    }
    const auto exact_answer = expected_smallest(exact, ell);
    const std::uint64_t exact_worst = exact_answer.back().rank;
    for (const auto& key : result.keys) {
      EXPECT_LT(true_rank.at(key.id), exact_worst + (1ULL << drop))
          << "approximate neighbor too far";
    }
  }
}

TEST(Quantize, DropZeroIsExact) {
  Rng rng(10);
  auto values = uniform_u64(500, rng);
  auto shards = make_scalar_shards(std::move(values), 4, PartitionScheme::Random, rng);
  auto scored = score_scalar_shards(shards, 777);
  auto same = quantize_scored_shards(scored, 0);
  EXPECT_EQ(run_knn(same, 40, KnnAlgo::DistKnn, engine_for(1)).keys,
            expected_smallest(scored, 40));
}

// --- GaussianMixture train/test API -------------------------------------------------

TEST(Mixture, FixedCentersAcrossSamples) {
  Rng rng(11);
  ClusterSpec spec;
  spec.dim = 2;
  spec.clusters = 3;
  spec.center_box = 100.0;
  spec.spread = 0.5;
  const GaussianMixture mixture(spec, rng);
  EXPECT_EQ(mixture.centers().size(), 3u);

  auto train = mixture.sample(300, rng);
  Rng test_rng(12);
  auto test = mixture.sample(100, test_rng);
  // Every sample lies near ITS label's center (20 sigma).
  EuclideanMetric metric;
  for (const auto& lp : train) {
    EXPECT_LT(metric(lp.x, mixture.centers()[lp.label]), 10.0);
  }
  for (const auto& lp : test) {
    EXPECT_LT(metric(lp.x, mixture.centers()[lp.label]), 10.0);
  }
}

TEST(Mixture, TrainTestClassificationEndToEnd) {
  // The regression test for the bug the examples hit: classification must
  // generalize to FRESH samples, which requires train and test to share
  // centers.
  Rng rng(13);
  ClusterSpec spec;
  spec.dim = 3;
  spec.clusters = 4;
  spec.center_box = 80.0;
  spec.spread = 2.0;
  const GaussianMixture mixture(spec, rng);
  auto train = mixture.sample(800, rng);

  std::vector<PointD> points;
  for (const auto& lp : train) points.push_back(lp.x);
  auto shards = make_vector_shards(points, 6, PartitionScheme::Random, rng);
  std::vector<std::vector<std::uint32_t>> labels(6);
  std::map<std::vector<double>, std::uint32_t> by_coords;
  for (const auto& lp : train) by_coords[lp.x.coords] = lp.label;
  for (std::size_t m = 0; m < 6; ++m) {
    for (const auto& p : shards[m].points) labels[m].push_back(by_coords.at(p.coords));
  }

  const auto by_id = testing_support::payloads_by_id(shards, labels);
  Rng test_rng(14);
  auto test = mixture.sample(30, test_rng);
  int correct = 0;
  for (std::size_t q = 0; q < test.size(); ++q) {
    const auto result =
        classify_scored_batch({score_vector_shards(shards, test[q].x, EuclideanMetric{})}, by_id,
                              9, engine_for(q))
            .front();
    correct += (result.label == test[q].label);
  }
  EXPECT_GE(correct, 28);  // well-separated clusters: near-perfect
}

// --- cluster (shared-NIC) model end-to-end -------------------------------------------

TEST(ClusterModel, IngressCapSlowsTheGatherNotTheProtocol) {
  constexpr std::uint32_t k = 16;
  constexpr std::uint64_t ell = 512;
  Rng rng(15);
  auto values = uniform_u64(1 << 13, rng);
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, 123456);

  auto base = engine_for(16);
  base.bandwidth = BandwidthPolicy::Chunked;
  base.bits_per_round = 256;

  auto nic = base;
  nic.ingress_bits_per_round = 256;

  // Correctness unaffected by the ingress cap.
  const auto simple_base = run_knn(scored, ell, KnnAlgo::Simple, base);
  const auto simple_nic = run_knn(scored, ell, KnnAlgo::Simple, nic);
  EXPECT_EQ(simple_base.keys, simple_nic.keys);
  const auto fast_nic = run_knn(scored, ell, KnnAlgo::DistKnn, nic);
  EXPECT_EQ(fast_nic.keys, simple_nic.keys);

  // The gather baseline serializes through the NIC: ~k x more rounds.
  EXPECT_GT(simple_nic.report.rounds, simple_base.report.rounds * (k / 2));
  // Algorithm 2's small messages suffer far less.
  EXPECT_LT(fast_nic.report.rounds * 5, simple_nic.report.rounds);
}

TEST(ClusterModel, Figure2MechanismRatioGrowsWithK) {
  // The end-to-end mechanism behind Figure 2's k-growth under the cluster
  // model: the ratio at k=16 must exceed the ratio at k=4.
  constexpr std::uint64_t ell = 512;
  CostModelConfig cost;
  double ratios[2] = {0, 0};
  int idx = 0;
  for (std::uint32_t k : {4u, 16u}) {
    Rng rng(17);
    auto values = uniform_u64(1 << 13, rng);
    auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::RoundRobin, rng);
    auto scored = score_scalar_shards(shards, 555);
    auto config = engine_for(18);
    config.bandwidth = BandwidthPolicy::Chunked;
    config.bits_per_round = 256;
    config.ingress_bits_per_round = 256;
    config.measure_compute = true;
    const auto fast = run_knn(scored, ell, KnnAlgo::DistKnn, config);
    const auto slow = run_knn(scored, ell, KnnAlgo::Simple, config);
    ratios[idx++] = bsp_cost(slow.report, cost).total_sec / bsp_cost(fast.report, cost).total_sec;
  }
  EXPECT_GT(ratios[1], ratios[0]);
}

}  // namespace
}  // namespace dknn
