// Tests for core/dist_knn (the paper's Algorithm 2): equivalence with brute
// force across metrics/dims/placements, Theorem 2.4 round bounds and
// k-independence, Lemma 2.3 pruning behaviour, Las Vegas vs Monte Carlo
// failure handling, the finish's costs on both sides of ℓ = 47/48, config
// rejection, and the paper's exact experimental setting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/driver.hpp"
#include "data/generators.hpp"
#include "data/metric.hpp"
#include "data/partition.hpp"
#include "data/validate.hpp"
#include "rng/rng.hpp"
#include "sim/engine.hpp"
#include "support/stats.hpp"

namespace dknn {
namespace {

EngineConfig engine_for(std::uint64_t seed) {
  EngineConfig c;
  c.seed = seed;
  c.measure_compute = false;
  return c;
}

// --- scalar correctness grid (the paper's experimental setting) --------------------

class KnnGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t, PartitionScheme>> {};

TEST_P(KnnGrid, MatchesBruteForceScalar) {
  const auto [n, k, scheme] = GetParam();
  Rng rng(2000 + n * 13 + k);
  auto values = uniform_u64(n, rng);
  auto shards = make_scalar_shards(std::move(values), k, scheme, rng);
  const Value query = rng.between(0, (1ULL << 32) - 1);
  auto scored = score_scalar_shards(shards, query);
  for (std::uint64_t ell : {std::uint64_t{1}, std::uint64_t{2}, static_cast<std::uint64_t>(n / 4),
                            static_cast<std::uint64_t>(n)}) {
    if (ell == 0) continue;
    const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(ell * 3 + 1));
    EXPECT_EQ(result.keys, expected_smallest(scored, ell))
        << "n=" << n << " k=" << k << " scheme=" << partition_scheme_name(scheme)
        << " ell=" << ell;
    EXPECT_TRUE(result.prune_ok);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KnnGrid,
    ::testing::Combine(::testing::Values(1u, 8u, 64u, 512u, 2048u),
                       ::testing::Values(1u, 2u, 4u, 16u, 64u),
                       ::testing::Values(PartitionScheme::RoundRobin, PartitionScheme::Random,
                                         PartitionScheme::SortedBlocks,
                                         PartitionScheme::FirstHeavy)),
    [](const auto& param_info) {
      // NOTE: no structured bindings here — commas inside [] are not
      // protected from the INSTANTIATE macro's argument splitting.
      // Built with += steps: chained operator+ trips GCC 12's -Wrestrict
      // false positive.
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_k";
      name += std::to_string(std::get<1>(param_info.param));
      name += "_";
      name += partition_scheme_name(std::get<2>(param_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- vector metrics -------------------------------------------------------------------

template <typename M>
void check_vector_knn(const M& metric, std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::uint32_t k = 8;
  auto points = uniform_points(600, 4, 50.0, rng);
  auto shards = make_vector_shards(points, k, PartitionScheme::Random, rng);
  const PointD query = uniform_points(1, 4, 50.0, rng)[0];
  auto scored = score_vector_shards(shards, query, metric);
  for (std::uint64_t ell : {1u, 10u, 100u}) {
    const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(seed + ell));
    EXPECT_EQ(result.keys, expected_smallest(scored, ell)) << "ell=" << ell;
  }
}

TEST(KnnVector, Euclidean) { check_vector_knn(EuclideanMetric{}, 31); }
TEST(KnnVector, SquaredEuclidean) { check_vector_knn(SquaredEuclidean{}, 32); }
TEST(KnnVector, Manhattan) { check_vector_knn(ManhattanMetric{}, 33); }
TEST(KnnVector, Chebyshev) { check_vector_knn(ChebyshevMetric{}, 34); }
TEST(KnnVector, Minkowski) { check_vector_knn(MinkowskiMetric{3.0}, 35); }

// --- Theorem 2.4: rounds O(log ℓ), independent of k --------------------------------------

TEST(KnnBounds, SelectIterationsScaleWithEllNotN) {
  // Fix n per machine, sweep ℓ: the inner selection runs on <= 11ℓ
  // candidates, so iterations ~ c·log(ℓ), regardless of n = k·n_i >> ℓ.
  constexpr std::uint32_t k = 16;
  constexpr std::size_t n_per_machine = 2048;
  Rng rng(40);
  auto values = uniform_u64(n_per_machine * k, rng);
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, rng.between(0, ~0u));
  for (std::uint64_t ell : {4u, 16u, 64u, 256u, 1024u}) {
    double worst = 0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(seed));
      worst = std::max(worst, static_cast<double>(result.iterations));
    }
    EXPECT_LE(worst, 6.0 * std::log2(static_cast<double>(11 * ell)) + 12.0) << "ell=" << ell;
  }
}

TEST(KnnBounds, RoundsIndependentOfK) {
  // Theorem 2.4's headline: rounds depend on ℓ only.  Compare mean rounds
  // at k=4 and k=64 for fixed ℓ and fixed total n.
  constexpr std::size_t total_n = 1 << 14;
  constexpr std::uint64_t ell = 128;
  SampleSet rounds_small, rounds_large;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(50 + seed);
    auto values = uniform_u64(total_n, rng);
    const Value query = rng.between(0, (1ULL << 32) - 1);
    auto shards4 = make_scalar_shards(values, 4, PartitionScheme::RoundRobin, rng);
    auto shards64 = make_scalar_shards(values, 64, PartitionScheme::RoundRobin, rng);
    rounds_small.add(static_cast<double>(
        run_knn(score_scalar_shards(shards4, query), ell, KnnAlgo::DistKnn, engine_for(seed))
            .report.rounds));
    rounds_large.add(static_cast<double>(
        run_knn(score_scalar_shards(shards64, query), ell, KnnAlgo::DistKnn, engine_for(seed))
            .report.rounds));
  }
  // Means within a factor ~1.5 + slack of each other.
  EXPECT_LT(rounds_large.mean(), 1.5 * rounds_small.mean() + 10.0);
  EXPECT_LT(rounds_small.mean(), 1.5 * rounds_large.mean() + 10.0);
}

TEST(KnnBounds, MessageComplexity) {
  // O(k log ℓ) messages: samples (k · ~12 ln ℓ), headers/radius/counts/
  // decision (O(k) each), inner selection (O(k log ℓ)).
  constexpr std::uint32_t k = 32;
  constexpr std::uint64_t ell = 256;
  Rng rng(60);
  auto values = uniform_u64(1 << 14, rng);
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, rng.between(0, ~0u));
  const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(3));
  const double lnl = std::log(static_cast<double>(ell));
  const double budget = static_cast<double>(k) *
                        (12.0 * lnl + 4.0                // samples + header
                         + 2.0                           // radius + count
                         + 1.0                           // decision
                         + (2.0 + 6.0 * (std::log2(11.0 * static_cast<double>(ell)) + 4.0)));
  EXPECT_LE(static_cast<double>(result.report.traffic.messages_sent()), budget);
}

// --- Lemma 2.3: pruning ---------------------------------------------------------------------

TEST(KnnPruning, CandidatesBoundedBy11Ell) {
  // W.h.p. the survivor count is <= 11ℓ; we tolerate a small failure rate
  // across trials (the lemma's own failure probability is O(1/ℓ²)).
  constexpr std::uint32_t k = 32;
  constexpr std::uint64_t ell = 256;
  Rng rng(70);
  auto values = uniform_u64(1 << 14, rng);
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, rng.between(0, ~0u));
  int violations = 0;
  constexpr int kTrials = 20;
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(seed));
    EXPECT_GE(result.candidates, ell);  // never lost the answer (Las Vegas)
    if (result.candidates > 11 * ell) ++violations;
  }
  EXPECT_LE(violations, 2);
}

TEST(KnnPruning, NeverExceedsCappedTotal) {
  constexpr std::uint32_t k = 8;
  constexpr std::uint64_t ell = 64;
  Rng rng(71);
  auto values = uniform_u64(1024, rng);
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, 12345);
  const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(5));
  EXPECT_LE(result.candidates, static_cast<std::uint64_t>(k) * ell);
}

TEST(KnnPruning, MonteCarloNeverRetries) {
  Rng rng(72);
  auto values = uniform_u64(4096, rng);
  auto shards = make_scalar_shards(std::move(values), 16, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, 999);
  KnnConfig config;
  config.las_vegas = false;
  // ℓ = 16 ends at the finish, which prunes nothing: its answer is whole.
  for (std::uint64_t ell : {16u, 128u}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(seed), config);
      EXPECT_EQ(result.attempts, 1u);
      if (ell == 16) {
        EXPECT_TRUE(result.prune_ok);
        EXPECT_EQ(result.iterations, 0u);
      }
      if (result.prune_ok) {
        EXPECT_EQ(result.keys, expected_smallest(scored, ell));
      } else {
        // The lossy answer is exactly the survivors (all of them).
        EXPECT_LT(result.keys.size(), ell);
      }
    }
  }
}

TEST(KnnPruning, AggressiveRankForcesRetryAndStaysCorrect) {
  // rank_coeff = 0 picks the smallest sample as radius — almost always a
  // failing prune, exercising the Las Vegas retry path hard.
  Rng rng(73);
  auto values = uniform_u64(2048, rng);
  auto shards = make_scalar_shards(std::move(values), 8, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, 777);
  KnnConfig config;
  config.rank_coeff = 0.0;  // radius rank clamps to 1 (the minimum sample)
  config.max_retries = 3;
  const auto result = run_knn(scored, 256, KnnAlgo::DistKnn, engine_for(1), config);
  EXPECT_EQ(result.keys, expected_smallest(scored, 256));
  EXPECT_GT(result.attempts, 1u);  // it had to retry (or fall back)
}

TEST(KnnPruning, ZeroRetriesMeansNoPruning) {
  Rng rng(74);
  auto values = uniform_u64(512, rng);
  auto shards = make_scalar_shards(std::move(values), 4, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, 42);
  KnnConfig config;
  config.max_retries = 0;  // straight to the no-prune fallback
  KnnConfig no_finish = config;
  no_finish.finish_on_full_sample = false;
  // The finish applies only to an attempt that prunes, so at ℓ = 16 too
  // Algorithm 1 runs, and the report (KnnAlgo::CappedSelect's as well)
  // does not depend on the finish setting.
  for (std::uint64_t ell : {16u, 64u}) {
    SCOPED_TRACE("ell=" + std::to_string(ell));
    const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(2), config);
    EXPECT_EQ(result.keys, expected_smallest(scored, ell));
    EXPECT_EQ(result.candidates, std::min<std::uint64_t>(512, 4 * ell));
    EXPECT_GT(result.iterations, 0u);
    const auto off = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(2), no_finish);
    const auto capped = run_knn(scored, ell, KnnAlgo::CappedSelect, engine_for(2));
    for (const auto* other : {&off, &capped}) {
      EXPECT_EQ(result.keys, other->keys);
      EXPECT_EQ(result.report.rounds, other->report.rounds);
      EXPECT_EQ(result.report.traffic.messages_sent(), other->report.traffic.messages_sent());
      EXPECT_EQ(result.report.traffic.bits_sent(), other->report.traffic.bits_sent());
      EXPECT_EQ(result.iterations, other->iterations);
    }
  }
}

// --- the finish: every sample a whole capped list ------------------------------------------

/// Scalar shards of `per_machine` uniform points on each of `k` machines,
/// scored against one random query.
std::vector<std::vector<Key>> finish_fixture(std::uint32_t k, std::size_t per_machine,
                                             std::uint64_t seed) {
  Rng rng(seed);
  auto values = uniform_u64(per_machine * k, rng);
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::RoundRobin, rng);
  return score_scalar_shards(shards, rng.between(0, (1ULL << 32) - 1));
}

KnnConfig paper_path() {
  KnnConfig config;
  config.finish_on_full_sample = false;
  return config;
}

TEST(KnnFinish, CostsOnBothSidesOfTheBoundary) {
  // ⌈12 ln 47⌉ = 47 and ⌈12 ln 48⌉ = 47: every sample of a capped list of
  // min(ℓ, n_i) = ℓ keys is the whole list up to ℓ = 47, never from 48 on.
  for (std::uint32_t k : {1u, 2u, 16u}) {
    for (std::uint64_t ell : {4u, 16u, 32u, 47u, 48u, 64u}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " ell=" + std::to_string(ell));
      const auto scored = finish_fixture(k, 128, 90 + k * 7 + ell);
      const auto engine = engine_for(ell + k);
      const auto finish = run_knn(scored, ell, KnnAlgo::DistKnn, engine);
      const auto paper = run_knn(scored, ell, KnnAlgo::DistKnn, engine, paper_path());
      const auto expected = expected_smallest(scored, ell);
      EXPECT_EQ(finish.keys, expected);
      EXPECT_EQ(paper.keys, expected);
      if (ell <= 47) {
        EXPECT_EQ(finish.attempts, 1u);
        EXPECT_EQ(finish.iterations, 0u);
        EXPECT_EQ(finish.candidates, ell);
        EXPECT_TRUE(finish.prune_ok);
        if (k > 1) {
          // Header + ℓ samples in, one final radius out, per follower.
          EXPECT_EQ(finish.report.rounds, 3u);
          EXPECT_EQ(finish.report.traffic.messages_sent(), (k - 1) * (ell + 2));
          EXPECT_LT(finish.report.rounds, paper.report.rounds);
          EXPECT_LT(finish.report.traffic.messages_sent(), paper.report.traffic.messages_sent());
        } else {
          EXPECT_EQ(finish.report.traffic.messages_sent(), 0u);
        }
      } else {
        // No sample covers its list: the finish never fires and the two
        // settings run the same protocol bit for bit.
        EXPECT_EQ(finish.report.rounds, paper.report.rounds);
        EXPECT_EQ(finish.report.traffic.messages_sent(), paper.report.traffic.messages_sent());
        EXPECT_EQ(finish.report.traffic.bits_sent(), paper.report.traffic.bits_sent());
        EXPECT_EQ(finish.iterations, paper.iterations);
        EXPECT_EQ(finish.attempts, paper.attempts);
        EXPECT_EQ(finish.candidates, paper.candidates);
      }
    }
  }
}

TEST(KnnFinish, ShardsSmallerThanEllFinishAboveTheBoundary) {
  // n = 64 over k = 16: each capped list holds 4 keys, well under the 50
  // samples ℓ = 64 asks for, so the leader again holds every list.
  constexpr std::uint32_t k = 16;
  constexpr std::uint64_t ell = 64;
  const auto scored = finish_fixture(k, 4, 91);
  const auto finish = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(7));
  const auto paper = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(7), paper_path());
  EXPECT_EQ(finish.keys, expected_smallest(scored, ell));
  EXPECT_EQ(paper.keys, finish.keys);
  EXPECT_EQ(finish.keys.size(), 64u);
  EXPECT_EQ(finish.candidates, 64u);
  EXPECT_EQ(finish.iterations, 0u);
  EXPECT_EQ(finish.report.rounds, 3u);
  EXPECT_EQ(finish.report.traffic.messages_sent(), (k - 1) * (4 + 2));
  EXPECT_LT(finish.report.rounds, paper.report.rounds);
}

// --- sample-count formulas -----------------------------------------------------------------

TEST(KnnFormulas, SampleAndRankCounts) {
  KnnConfig config;  // coefficients 12 and 21
  EXPECT_EQ(knn_sample_count(1, config), knn_sample_count(2, config));  // clamped at ℓ=2
  EXPECT_EQ(knn_sample_count(2, config),
            static_cast<std::uint64_t>(std::ceil(12.0 * std::log(2.0))));
  EXPECT_EQ(knn_sample_count(1024, config),
            static_cast<std::uint64_t>(std::ceil(12.0 * std::log(1024.0))));
  EXPECT_EQ(knn_radius_rank(1024, config),
            static_cast<std::uint64_t>(std::ceil(21.0 * std::log(1024.0))));
  EXPECT_GE(knn_sample_count(1, config), 1u);
  EXPECT_GE(knn_radius_rank(1, config), 1u);
}

TEST(KnnFormulas, BadCoefficientsAreRejectedHugeOnesSaturate) {
  const std::string sample_text = "dknn: KnnConfig::sample_coeff must be finite and >= 0";
  const std::string rank_text = "dknn: KnnConfig::rank_coeff must be finite and >= 0";
  for (double bad : {-12.0, -1e-9, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(bad);
    KnnConfig sample_bad;
    sample_bad.sample_coeff = bad;
    KnnConfig rank_bad;
    rank_bad.rank_coeff = bad;
    EXPECT_EQ(std::string(knn_config_error(sample_bad, 4)), sample_text);
    EXPECT_EQ(std::string(knn_config_error(rank_bad, 4)), rank_text);
    try {
      (void)knn_sample_count(16, sample_bad);
      FAIL() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      EXPECT_EQ(std::string(e.what()), sample_text);
    }
    try {
      (void)knn_radius_rank(16, rank_bad);
      FAIL() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      EXPECT_EQ(std::string(e.what()), rank_text);
    }
  }
  KnnConfig leader_bad;
  leader_bad.leader = 9;
  EXPECT_EQ(std::string(knn_config_error(leader_bad, 4)),
            "dknn: KnnConfig::leader must be less than the machine count");
  KnnConfig zero;  // both coefficients 0 are legal: the counts clamp to 1
  zero.sample_coeff = 0.0;
  zero.rank_coeff = 0.0;
  zero.leader = 3;
  EXPECT_EQ(knn_config_error(zero, 4), nullptr);
  EXPECT_EQ(knn_sample_count(16, zero), 1u);
  EXPECT_EQ(knn_radius_rank(16, zero), 1u);

  // A huge finite coefficient saturates at 2^63 instead of overflowing the
  // cast, and the protocol clamps it to the list (sample) or pool (rank).
  KnnConfig huge;
  huge.sample_coeff = 1e300;
  huge.rank_coeff = std::numeric_limits<double>::max();
  EXPECT_EQ(knn_sample_count(16, huge), std::uint64_t{1} << 63);
  EXPECT_EQ(knn_radius_rank(1 << 20, huge), std::uint64_t{1} << 63);
  const auto scored = finish_fixture(4, 128, 94);
  for (bool finish : {true, false}) {
    KnnConfig config = huge;
    config.finish_on_full_sample = finish;
    EXPECT_EQ(run_knn(scored, 64, KnnAlgo::DistKnn, engine_for(4), config).keys,
              expected_smallest(scored, 64));
  }
}

TEST(KnnFormulas, RunKnnRejectsBadConfigs) {
  // Checked up front on every path, the finish (which never reads the
  // rank) and CappedSelect included.
  const auto scored = finish_fixture(4, 32, 95);
  KnnConfig leader_bad;
  leader_bad.leader = 9;
  KnnConfig sample_bad;
  sample_bad.sample_coeff = -12.0;
  KnnConfig rank_bad;
  rank_bad.rank_coeff = std::nan("");
  for (KnnAlgo algo : {KnnAlgo::DistKnn, KnnAlgo::CappedSelect}) {
    for (const KnnConfig* bad : {&leader_bad, &sample_bad, &rank_bad}) {
      try {
        (void)run_knn(scored, 8, algo, engine_for(1), *bad);
        FAIL() << "expected PreconditionError";
      } catch (const PreconditionError& e) {
        EXPECT_EQ(std::string(e.what()), knn_config_error(*bad, 4));
      }
    }
  }
}

// --- edge cases ------------------------------------------------------------------------------

TEST(KnnEdge, EllZeroSelectsNothing) {
  Rng rng(80);
  auto values = uniform_u64(100, rng);
  auto shards = make_scalar_shards(std::move(values), 4, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, 5);
  const auto result = run_knn(scored, 0, KnnAlgo::DistKnn, engine_for(1));
  EXPECT_TRUE(result.keys.empty());
}

TEST(KnnEdge, EmptyDataset) {
  std::vector<std::vector<Key>> scored(4);
  const auto result = run_knn(scored, 10, KnnAlgo::DistKnn, engine_for(2));
  EXPECT_TRUE(result.keys.empty());
}

TEST(KnnEdge, SingleMachine) {
  std::vector<std::vector<Key>> scored(1);
  for (std::uint64_t i = 0; i < 64; ++i) scored[0].push_back(Key{(i * 37) % 1000, i + 1});
  const auto result = run_knn(scored, 10, KnnAlgo::DistKnn, engine_for(3));
  EXPECT_EQ(result.keys, expected_smallest(scored, 10));
}

TEST(KnnEdge, QueryCollidesWithPoints) {
  // Query exactly equals many points: distance 0 ties broken by id.
  Rng rng(81);
  std::vector<Value> values(100, 500);  // all identical to the query
  auto shards = make_scalar_shards(std::move(values), 4, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, 500);
  const auto result = run_knn(scored, 10, KnnAlgo::DistKnn, engine_for(4));
  ASSERT_EQ(result.keys.size(), 10u);
  for (const Key& key : result.keys) EXPECT_EQ(key.rank, 0u);
  EXPECT_EQ(result.keys, expected_smallest(scored, 10));
}

TEST(KnnEdge, DeterministicForSeed) {
  Rng rng(82);
  auto values = uniform_u64(1024, rng);
  auto shards = make_scalar_shards(std::move(values), 8, PartitionScheme::Random, rng);
  auto scored = score_scalar_shards(shards, 31337);
  const auto a = run_knn(scored, 100, KnnAlgo::DistKnn, engine_for(5));
  const auto b = run_knn(scored, 100, KnnAlgo::DistKnn, engine_for(5));
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  EXPECT_EQ(a.candidates, b.candidates);
}

TEST(KnnEdge, PaperSettingSmallScale) {
  // The paper's §3 workload, scaled down: uniform values in [0, 2^32-1],
  // per-machine generation, random query, k = 16.
  constexpr std::uint32_t k = 16;
  constexpr std::size_t per_machine = 1 << 10;
  Rng rng(83);
  std::vector<std::vector<Key>> scored(k);
  std::vector<std::vector<Value>> raw(k);
  const Value query = rng.between(0, (1ULL << 32) - 1);
  // Per-machine independent generation exactly as in the paper.
  std::vector<Value> all;
  for (std::uint32_t m = 0; m < k; ++m) {
    Rng machine_rng = rng.split(m);
    raw[m] = uniform_u64(per_machine, machine_rng);
    all.insert(all.end(), raw[m].begin(), raw[m].end());
  }
  Rng id_rng(84);
  auto ids = assign_random_ids(all.size(), id_rng);
  std::size_t next = 0;
  for (std::uint32_t m = 0; m < k; ++m) {
    for (Value v : raw[m]) scored[m].push_back(Key{scalar_distance(v, query), ids[next++]});
  }
  for (std::uint64_t ell : {1u, 16u, 256u, 4096u}) {
    const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_for(ell));
    EXPECT_EQ(result.keys, expected_smallest(scored, ell)) << "ell=" << ell;
  }
}

TEST(KnnEdge, ChunkedBandwidthCertification) {
  // Algorithm 2's sampling phase queues ~12·ln ℓ one-key messages on each
  // machine→leader link; under B-bit links those drain over O(log ℓ)
  // rounds (which is exactly why Theorem 2.4 still holds).  Verify the
  // protocol is correct under that queuing, that no single message exceeds
  // O(log n) bits, and that delivery latency stayed bounded by the sample
  // count.  At ℓ = 16 the samples are whole capped lists: the finish must
  // save rounds under that queuing too, not only on unlimited links.
  Rng rng(85);
  auto values = uniform_u64(512, rng);
  auto shards = make_scalar_shards(std::move(values), 8, PartitionScheme::RoundRobin, rng);
  auto scored = score_scalar_shards(shards, 123);
  auto config = engine_for(6);
  config.bandwidth = BandwidthPolicy::Chunked;
  config.bits_per_round = 512;
  for (std::uint64_t ell : {16u, 64u}) {
    SCOPED_TRACE("ell=" + std::to_string(ell));
    const auto result = run_knn(scored, ell, KnnAlgo::DistKnn, config);
    EXPECT_EQ(result.keys, expected_smallest(scored, ell));
    EXPECT_LE(result.report.traffic.max_message_bits(), 512u);
    const std::uint64_t samples = knn_sample_count(ell, KnnConfig{});
    EXPECT_LE(result.report.traffic.max_delivery_latency(), samples + 4);
    const auto paper = run_knn(scored, ell, KnnAlgo::DistKnn, config, paper_path());
    EXPECT_EQ(paper.keys, result.keys);
    if (ell == 16) {
      EXPECT_LT(result.report.rounds, paper.report.rounds);
    } else {
      EXPECT_EQ(result.report.rounds, paper.report.rounds);
    }
  }
}

}  // namespace
}  // namespace dknn
