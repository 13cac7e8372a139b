// Unit + property tests for src/rng: splitmix64, xoshiro256**, Rng facade,
// sampling without replacement.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "rng/rng.hpp"
#include "rng/sampling.hpp"
#include "rng/splitmix64.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

// --- splitmix64 ----------------------------------------------------------------

TEST(SplitMix64, ReferenceVector) {
  // Known-answer outputs of the reference SplitMix64 with seed 1234567.
  std::uint64_t state = 1234567;
  const std::array<std::uint64_t, 5> expected = {
      6457827717110365317ULL, 3203168211198807973ULL, 9817491932198370423ULL,
      4593380528125082431ULL, 16408922859458223821ULL};
  for (std::uint64_t want : expected) EXPECT_EQ(splitmix64_next(state), want);
}

TEST(SplitMix64, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(splitmix64_mix(0), splitmix64_mix(0));
  // Adjacent inputs yield very different outputs (avalanche smoke test).
  const std::uint64_t a = splitmix64_mix(1);
  const std::uint64_t b = splitmix64_mix(2);
  EXPECT_NE(a, b);
  EXPECT_GT(std::popcount(a ^ b), 10);
}

// --- xoshiro -------------------------------------------------------------------

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, JumpChangesSequence) {
  Xoshiro256 a(7), b(7);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

// --- Rng facade ------------------------------------------------------------------

TEST(Rng, BelowStaysInBounds) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowRejectsZero) {
  Rng rng(9);
  EXPECT_THROW((void)rng.below(0), InvariantError);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(2024);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::array<int, kBound> histogram{};
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.below(kBound)];
  // Each bucket expects 10000; allow ±5% (way beyond 6 sigma).
  for (int count : histogram) {
    EXPECT_GT(count, 9500);
    EXPECT_LT(count, 10500);
  }
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.between(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo |= (v == 10);
    saw_hi |= (v == 13);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BetweenSinglePoint) {
  Rng rng(5);
  EXPECT_EQ(rng.between(7, 7), 7u);
}

TEST(Rng, BetweenFullRangeDoesNotOverflow) {
  Rng rng(5);
  (void)rng.between(0, ~0ULL);  // must not hang or throw
}

TEST(Rng, Uniform01Range) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01Mean) {
  Rng rng(7);
  double sum = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(8);
  double sum = 0, sumsq = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.gaussian(3.0, 2.0);
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / kDraws;
  const double var = sumsq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(12);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, SplitIsDeterministicAndIndependent) {
  Rng root(99);
  Rng a1 = root.split(1);
  Rng a2 = root.split(1);
  Rng b = root.split(2);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a1.next_u64(), a2.next_u64());
  // different tags diverge
  Rng a3 = root.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a3.next_u64() == b.next_u64());
  EXPECT_LE(equal, 1);
}

TEST(Rng, SplitStreamKnownAnswer) {
  // Rng(seed).split(i) is the stream derivation for BOTH the engine's
  // per-machine RNGs and the thread pool's per-worker victim-selection
  // RNGs (sim/thread_pool.cpp), so it is part of the parallel-run
  // reproducibility contract.  Pin actual output words: a platform or
  // refactor that shifts these streams silently changes every "parallel
  // run equals serial run" guarantee downstream.
  const Rng root(2026);
  const std::uint64_t expected[3][3] = {
      {12851956997773424818ULL, 3107675999915196463ULL, 12758612543946084076ULL},
      {3139358567881785589ULL, 10787654849195158847ULL, 11044682715369037546ULL},
      {16056279658431172356ULL, 12514546682306110315ULL, 10431118161487611348ULL},
  };
  for (std::uint64_t worker = 0; worker < 3; ++worker) {
    Rng stream = root.split(worker);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(stream.next_u64(), expected[worker][i])
          << "worker " << worker << " draw " << i;
    }
  }
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng r1(123), r2(123);
  (void)r1.split(7);
  (void)r1.split(8);
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(13);
  const std::vector<std::uint64_t> weights = {1, 0, 3, 6};
  std::array<int, 4> histogram{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.weighted_index(weights)];
  EXPECT_EQ(histogram[1], 0);  // zero weight never chosen
  EXPECT_NEAR(histogram[0] / double(kDraws), 0.1, 0.01);
  EXPECT_NEAR(histogram[2] / double(kDraws), 0.3, 0.01);
  EXPECT_NEAR(histogram[3] / double(kDraws), 0.6, 0.01);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(14);
  const std::vector<std::uint64_t> weights = {0, 0};
  EXPECT_THROW((void)rng.weighted_index(weights), InvariantError);
}

TEST(Rng, WeightedIndexSingleBucket) {
  Rng rng(15);
  const std::vector<std::uint64_t> weights = {5};
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.weighted_index(weights), 0u);
}

// --- sampling ----------------------------------------------------------------------

TEST(Sampling, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  shuffle(std::span<int>(v), rng);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Sampling, WithoutReplacementDistinct) {
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    auto idx = sample_indices_without_replacement(100, 30, rng);
    EXPECT_EQ(idx.size(), 30u);
    std::set<std::size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 30u);
    for (std::size_t i : idx) EXPECT_LT(i, 100u);
  }
}

TEST(Sampling, WholePopulationIsPermutation) {
  Rng rng(23);
  auto idx = sample_indices_without_replacement(50, 50, rng);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Sampling, CountZero) {
  Rng rng(24);
  EXPECT_TRUE(sample_indices_without_replacement(10, 0, rng).empty());
}

TEST(Sampling, OverdrawThrows) {
  Rng rng(25);
  EXPECT_THROW((void)sample_indices_without_replacement(5, 6, rng), InvariantError);
}

TEST(Sampling, KnownAnswers) {
  // Pins the draw order: Algorithm 2's samples (and the thm24 bench's
  // ℓ ≥ 64 rows) depend on it.  One stream across the cases, so each case
  // also pins how many draws the previous one consumed.
  Rng rng(2020);
  EXPECT_EQ(sample_indices_without_replacement(16, 16, rng),
            (std::vector<std::size_t>{2, 5, 13, 3, 10, 4, 6, 11, 8, 0, 15, 7, 14, 12, 9, 1}));
  EXPECT_EQ(sample_indices_without_replacement(64, 50, rng),
            (std::vector<std::size_t>{39, 12, 17, 2,  5,  30, 49, 61, 3,  22, 9,  48, 47,
                                      41, 40, 59, 43, 21, 1,  56, 54, 53, 7,  36, 44, 28,
                                      32, 50, 42, 38, 58, 57, 45, 19, 13, 16, 11, 20, 33,
                                      0,  27, 8,  6,  24, 60, 51, 26, 25, 23, 4}));
  EXPECT_EQ(sample_indices_without_replacement(100, 30, rng),
            (std::vector<std::size_t>{43, 17, 40, 63, 27, 32, 21, 99, 19, 45, 2,  20, 38, 12, 14,
                                      34, 26, 53, 58, 57, 36, 97, 23, 8,  49, 83, 48, 42, 81, 18}));
  EXPECT_EQ(sample_indices_without_replacement(std::size_t{1} << 20, 64, rng),
            (std::vector<std::size_t>{
                774192, 289758, 734559, 407688,  730567, 43356,  566370, 269464,
                915119, 489609, 629762, 43745,   75460,  141348, 179130, 185207,
                262147, 605874, 659906, 235739,  688275, 347502, 330608, 1005563,
                220358, 231171, 432790, 850121,  869775, 713827, 585154, 632183,
                1031212, 792730, 661028, 87144,  568712, 88445,  84252,  528798,
                86223,  107652, 672851, 814378,  219841, 195555, 545928, 401994,
                423223, 175610, 493398, 111538,  242205, 339507, 1020876, 521734,
                707138, 584222, 530304, 1008327, 445702, 40942,  710677, 121808}));
  EXPECT_EQ(rng.next_u64(), 8493015884479858059ULL);
}

TEST(Sampling, MarginalsAreUniform) {
  // Each element of [0, 20) should appear in a 5-sample with prob 1/4.
  Rng rng(26);
  std::array<int, 20> hits{};
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) {
    for (std::size_t i : sample_indices_without_replacement(20, 5, rng)) ++hits[i];
  }
  for (int h : hits) EXPECT_NEAR(h / double(kTrials), 0.25, 0.02);
}

TEST(Sampling, SampleValuesWithoutReplacement) {
  Rng rng(27);
  const std::vector<int> pop = {10, 20, 30, 40, 50};
  auto got = sample_without_replacement(std::span<const int>(pop), 3, rng);
  EXPECT_EQ(got.size(), 3u);
  for (int v : got) EXPECT_TRUE(std::find(pop.begin(), pop.end(), v) != pop.end());
  std::set<int> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Sampling, ReservoirExactWhenSmall) {
  Rng rng(28);
  Reservoir<int> res(10, rng);
  for (int i = 0; i < 7; ++i) res.offer(i);
  EXPECT_EQ(res.items().size(), 7u);
  EXPECT_EQ(res.seen(), 7u);
}

TEST(Sampling, ZipfMatchesAnalyticMass) {
  // s = 1 over 4 ranks: weights 1, 1/2, 1/3, 1/4 → normalizer 25/12.
  Rng rng(30);
  ZipfSampler zipf(4, 1.0);
  std::array<int, 4> hits{};
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) ++hits[zipf.sample(rng)];
  const double z = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(hits[r] / double(kTrials), (1.0 / double(r + 1)) / z, 0.01) << "rank " << r;
  }
}

TEST(Sampling, ZipfZeroExponentIsUniform) {
  Rng rng(31);
  ZipfSampler zipf(8, 0.0);
  std::array<int, 8> hits{};
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) ++hits[zipf.sample(rng)];
  for (int h : hits) EXPECT_NEAR(h / double(kTrials), 0.125, 0.01);
}

TEST(Sampling, ZipfSingleRankAlwaysZero) {
  Rng rng(32);
  ZipfSampler zipf(1, 1.5);
  for (int t = 0; t < 100; ++t) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Sampling, ZipfDeterministicGivenSeed) {
  ZipfSampler zipf(100, 1.2);
  Rng a(33), b(33);
  for (int t = 0; t < 256; ++t) EXPECT_EQ(zipf.sample(a), zipf.sample(b));
}

TEST(Sampling, ReservoirUniformMarginals) {
  Rng rng(29);
  std::array<int, 20> hits{};
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    Reservoir<int> res(5, rng);
    for (int i = 0; i < 20; ++i) res.offer(i);
    for (int v : res.items()) ++hits[static_cast<std::size_t>(v)];
  }
  for (int h : hits) EXPECT_NEAR(h / double(kTrials), 0.25, 0.025);
}

}  // namespace
}  // namespace dknn
