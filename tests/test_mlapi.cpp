// Tests for core/mlapi: distributed kNN classification and regression —
// the paper's §1 motivating applications — including agreement with a
// sequential reference, privacy accounting, and edge cases.  Every leg
// feeds a scoring stage (score_vector_shards, score_vector_shards_batch)
// into classify/regress_scored_batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/mlapi.hpp"
#include "data/generators.hpp"
#include "data/metric.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/brute.hpp"
#include "sim/engine.hpp"

namespace dknn {
namespace {

using testing_support::payloads_by_id;
using testing_support::shared_tables;

EngineConfig engine_for(std::uint64_t seed) {
  EngineConfig c;
  c.seed = seed;
  c.measure_compute = false;
  return c;
}

/// Builds labeled shards from a Gaussian mixture and returns everything a
/// test needs to compare against the sequential reference.
struct ClassifyFixture {
  std::vector<VectorShard> shards;
  std::vector<std::vector<std::uint32_t>> labels;
  std::vector<PointD> all_points;
  std::vector<PointId> all_ids;
  std::vector<std::uint32_t> all_labels;
};

ClassifyFixture make_classify_fixture(std::size_t n, std::uint32_t k, std::uint64_t seed) {
  Rng rng(seed);
  ClusterSpec spec;
  spec.dim = 2;
  spec.clusters = 3;
  spec.center_box = 100.0;
  spec.spread = 2.0;
  auto data = gaussian_clusters(n, spec, rng);
  std::vector<PointD> points;
  points.reserve(n);
  for (const auto& lp : data) points.push_back(lp.x);

  ClassifyFixture fx;
  fx.shards = make_vector_shards(points, k, PartitionScheme::Random, rng);
  fx.labels.resize(k);
  // Recover each shard point's label by exact coordinate match is fragile;
  // instead rebuild: shards preserve points, so map via lookup table.
  std::map<std::vector<double>, std::uint32_t> by_coords;
  for (const auto& lp : data) by_coords[lp.x.coords] = lp.label;
  for (std::uint32_t m = 0; m < k; ++m) {
    for (const auto& p : fx.shards[m].points) fx.labels[m].push_back(by_coords.at(p.coords));
  }
  for (std::uint32_t m = 0; m < k; ++m) {
    for (std::size_t i = 0; i < fx.shards[m].points.size(); ++i) {
      fx.all_points.push_back(fx.shards[m].points[i]);
      fx.all_ids.push_back(fx.shards[m].ids[i]);
      fx.all_labels.push_back(fx.labels[m][i]);
    }
  }
  return fx;
}

std::uint32_t reference_classify(const ClassifyFixture& fx, const PointD& query,
                                 std::uint64_t ell) {
  auto nn = brute_force_knn(std::span<const PointD>(fx.all_points), fx.all_ids, query,
                            EuclideanMetric{}, ell);
  std::map<std::uint32_t, std::size_t> tally;
  for (const auto& s : nn) ++tally[fx.all_labels[s.index]];
  std::uint32_t best = 0;
  std::size_t best_count = 0;
  for (const auto& [label, count] : tally) {
    if (count > best_count) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

TEST(Classify, MatchesSequentialReference) {
  auto fx = make_classify_fixture(600, 8, 1);
  const auto labels = payloads_by_id(fx.shards, fx.labels);
  Rng qrng(2);
  for (int q = 0; q < 10; ++q) {
    const PointD query = uniform_points(1, 2, 120.0, qrng)[0];
    const auto result =
        classify_scored_batch({score_vector_shards(fx.shards, query, EuclideanMetric{})}, labels,
                              15, engine_for(static_cast<std::uint64_t>(q)))
            .front();
    EXPECT_EQ(result.label, reference_classify(fx, query, 15)) << "query " << q;
    EXPECT_EQ(result.votes.size(), 15u);
  }
}

TEST(Classify, PerfectOnWellSeparatedClusters) {
  // Query placed exactly at a training point of a tight cluster: the
  // classifier must return that cluster's label.
  auto fx = make_classify_fixture(300, 4, 3);
  const auto labels = payloads_by_id(fx.shards, fx.labels);
  int correct = 0, total = 0;
  for (std::size_t i = 0; i < fx.all_points.size(); i += 25) {
    const auto result =
        classify_scored_batch({score_vector_shards(fx.shards, fx.all_points[i], EuclideanMetric{})},
                              labels, 7, engine_for(i))
            .front();
    correct += (result.label == fx.all_labels[i]);
    ++total;
  }
  // Spread 2.0 vs box 100: occasional center collisions aside, near-perfect.
  EXPECT_GE(correct * 10, total * 9);
}

TEST(Classify, TieBreaksToSmallestLabel) {
  // Two points at identical distances with labels {1, 2} and ell = 2:
  // majority is tied, the smaller label must win deterministically.
  const std::vector<std::vector<std::vector<Key>>> scored = {{{Key{100, 1}}, {Key{100, 2}}}};
  const std::vector<std::unordered_map<PointId, std::uint32_t>> labels = {
      {{1, 2u}},   // id 1 -> label 2
      {{2, 1u}}};  // id 2 -> label 1
  const auto result = classify_scored_batch(scored, labels, 2, engine_for(1)).front();
  EXPECT_EQ(result.label, 1u);
}

TEST(Classify, VotesAreTheGlobalNearest) {
  auto fx = make_classify_fixture(200, 4, 5);
  const PointD query = fx.all_points[0];
  const auto result =
      classify_scored_batch({score_vector_shards(fx.shards, query, EuclideanMetric{})},
                            payloads_by_id(fx.shards, fx.labels), 9, engine_for(2))
          .front();
  auto nn = brute_force_knn(std::span<const PointD>(fx.all_points), fx.all_ids, query,
                            EuclideanMetric{}, 9);
  ASSERT_EQ(result.votes.size(), nn.size());
  for (std::size_t i = 0; i < nn.size(); ++i) {
    EXPECT_EQ(result.votes[i].first, nn[i].key) << "rank " << i;
    EXPECT_EQ(result.votes[i].second, fx.all_labels[nn[i].index]) << "rank " << i;
  }
}

TEST(Classify, OnlyDistancesAndLabelsCrossTheNetwork) {
  // Privacy property from the paper's motivation: total network volume must
  // be far below what shipping raw feature vectors would need, and no
  // message may be large enough to contain a shard's points.
  constexpr std::uint32_t k = 8;
  constexpr std::size_t n = 4000;
  constexpr std::size_t dim = 16;  // chunky feature vectors
  Rng rng(6);
  auto points = uniform_points(n, dim, 50.0, rng);
  auto shards = make_vector_shards(points, k, PartitionScheme::Random, rng);
  std::vector<std::vector<std::uint32_t>> labels(k);
  for (std::uint32_t m = 0; m < k; ++m) {
    labels[m].assign(shards[m].points.size(), m % 3);
  }
  const PointD query = uniform_points(1, dim, 50.0, rng)[0];
  const auto result =
      classify_scored_batch({score_vector_shards(shards, query, EuclideanMetric{})},
                            payloads_by_id(shards, labels), 20, engine_for(3))
          .front();
  const std::uint64_t raw_bits = n * dim * 64;  // shipping all coordinates
  EXPECT_LT(result.run.report.traffic.bits_sent(), raw_bits / 10);
}

TEST(Classify, SingleShardWorks) {
  auto fx = make_classify_fixture(50, 1, 7);
  const auto result =
      classify_scored_batch({score_vector_shards(fx.shards, fx.all_points[0], EuclideanMetric{})},
                            payloads_by_id(fx.shards, fx.labels), 5, engine_for(4))
          .front();
  EXPECT_EQ(result.label, reference_classify(fx, fx.all_points[0], 5));
}

TEST(ClassifyBatch, PayloadGatherAddsOneMessagePerFollowerPerQuery) {
  constexpr std::uint32_t k = 8;
  auto fx = make_classify_fixture(600, k, 21);
  const auto indexes = make_shard_indexes(fx.shards, ScoringPolicy::Brute);
  Rng qrng(22);
  const auto queries = uniform_points(5, 2, 120.0, qrng);
  constexpr std::uint64_t ell = 15;
  const auto scored = score_vector_shards_batch(indexes, queries, ell, MetricKind::Euclidean);
  const auto labels = payloads_by_id(fx.shards, fx.labels);
  const auto results = classify_scored_batch(scored, labels, ell, engine_for(23));
  const auto batch = run_knn_batch(scored, ell, KnnAlgo::DistKnn, engine_for(23));
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_EQ(results[0].run.report.traffic.messages_sent(),
            batch.report.traffic.messages_sent() + queries.size() * (k - 1));
  EXPECT_GT(results[0].run.report.rounds, batch.report.rounds);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(results[q].run.keys, batch.per_query[q].keys) << "query " << q;
    EXPECT_EQ(results[q].run.attempts, batch.per_query[q].attempts) << "query " << q;
    EXPECT_EQ(results[q].run.candidates, batch.per_query[q].candidates) << "query " << q;
    if (q == 0) continue;
    // The whole-batch report rides on result 0 only.
    EXPECT_EQ(results[q].run.report.rounds, 0u) << "query " << q;
    EXPECT_EQ(results[q].run.report.traffic.messages_sent(), 0u) << "query " << q;
    EXPECT_TRUE(results[q].run.report.round_max_comp_ns.empty()) << "query " << q;
  }
  // The parallel executor runs the same gathers.
  EngineConfig parallel = engine_for(23);
  parallel.parallel = true;
  parallel.threads = 4;
  const auto par = classify_scored_batch(scored, labels, ell, parallel);
  EXPECT_EQ(par[0].run.report.rounds, results[0].run.report.rounds);
  EXPECT_EQ(par[0].run.report.traffic.messages_sent(),
            results[0].run.report.traffic.messages_sent());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(par[q].label, results[q].label) << "query " << q;
    EXPECT_EQ(par[q].votes, results[q].votes) << "query " << q;
  }
}

TEST(ClassifyBatch, RaggedBatchIsRejected) {
  // Query 1 misses machine 1: a typed error, never a read past its row.
  const std::vector<std::vector<std::vector<Key>>> scored = {{{Key{1, 1}}, {Key{2, 2}}},
                                                             {{Key{3, 1}}}};
  const std::vector<std::unordered_map<PointId, std::uint32_t>> labels = {{{1, 0u}}, {{2, 1u}}};
  EXPECT_THROW((void)classify_scored_batch(scored, labels, 1, engine_for(1)), InvariantError);
}

// --- regression -----------------------------------------------------------------------

TEST(Regress, MatchesSequentialMean) {
  constexpr std::uint32_t k = 6;
  Rng rng(10);
  auto data = regression_dataset(400, 2, 3.0, 0.05, rng);
  std::vector<PointD> points;
  std::vector<double> ys;
  for (const auto& rp : data) {
    points.push_back(rp.x);
    ys.push_back(rp.y);
  }
  auto shards = make_vector_shards(points, k, PartitionScheme::Random, rng);
  std::vector<std::vector<double>> targets(k);
  std::map<std::vector<double>, double> by_coords;
  for (const auto& rp : data) by_coords[rp.x.coords] = rp.y;
  for (std::uint32_t m = 0; m < k; ++m) {
    for (const auto& p : shards[m].points) targets[m].push_back(by_coords.at(p.coords));
  }

  std::vector<PointD> all_points;
  std::vector<PointId> all_ids;
  std::vector<double> all_ys;
  for (std::uint32_t m = 0; m < k; ++m) {
    for (std::size_t i = 0; i < shards[m].points.size(); ++i) {
      all_points.push_back(shards[m].points[i]);
      all_ids.push_back(shards[m].ids[i]);
      all_ys.push_back(targets[m][i]);
    }
  }

  const auto tables = shared_tables(payloads_by_id(shards, targets));
  Rng qrng(11);
  for (int q = 0; q < 5; ++q) {
    const PointD query = uniform_points(1, 2, 3.0, qrng)[0];
    const auto result =
        regress_scored_batch({score_vector_shards(shards, query, EuclideanMetric{})}, tables, 10,
                             engine_for(static_cast<std::uint64_t>(q)))
            .front();
    auto nn = brute_force_knn(std::span<const PointD>(all_points), all_ids, query,
                              EuclideanMetric{}, 10);
    double want = 0;
    for (const auto& s : nn) want += all_ys[s.index];
    want /= static_cast<double>(nn.size());
    EXPECT_NEAR(result.prediction, want, 1e-12) << "query " << q;
  }
}

TEST(Regress, ApproximatesSmoothFunction) {
  // With dense data and modest noise, ℓ-NN regression should predict the
  // noiseless truth to within a coarse tolerance.
  constexpr std::uint32_t k = 4;
  Rng rng(12);
  auto data = regression_dataset(3000, 1, 3.0, 0.05, rng);
  std::vector<PointD> points;
  for (const auto& rp : data) points.push_back(rp.x);
  auto shards = make_vector_shards(points, k, PartitionScheme::Random, rng);
  std::map<std::vector<double>, double> by_coords;
  for (const auto& rp : data) by_coords[rp.x.coords] = rp.y;
  std::vector<std::vector<double>> targets(k);
  for (std::uint32_t m = 0; m < k; ++m) {
    for (const auto& p : shards[m].points) targets[m].push_back(by_coords.at(p.coords));
  }
  const auto tables = shared_tables(payloads_by_id(shards, targets));
  Rng qrng(13);
  double worst = 0;
  for (int q = 0; q < 10; ++q) {
    const PointD query({(qrng.uniform01() * 2.0 - 1.0) * 2.5});
    const auto result =
        regress_scored_batch({score_vector_shards(shards, query, EuclideanMetric{})}, tables, 15,
                             engine_for(static_cast<std::uint64_t>(q)))
            .front();
    worst = std::max(worst, std::fabs(result.prediction - regression_truth(query)));
  }
  EXPECT_LT(worst, 0.25);
}

TEST(Regress, ContributionsSumToPrediction) {
  const std::vector<std::vector<std::vector<Key>>> scored = {{{Key{1, 1}, Key{4, 2}}, {Key{2, 3}}}};
  const auto targets = shared_tables<double>({{{1, 10.0}, {2, 20.0}}, {{3, 4.0}}});
  const auto result = regress_scored_batch(scored, targets, 2, engine_for(1)).front();
  ASSERT_EQ(result.contributions.size(), 2u);
  EXPECT_DOUBLE_EQ(result.prediction, (10.0 + 4.0) / 2.0);
}

TEST(Regress, NegativeTargetsSurviveBitCast) {
  const std::vector<std::vector<std::vector<Key>>> scored = {{{Key{1, 1}, Key{2, 2}}}};
  const auto targets = shared_tables<double>({{{1, -5.5}, {2, -2.5}}});
  const auto result = regress_scored_batch(scored, targets, 2, engine_for(2)).front();
  EXPECT_DOUBLE_EQ(result.prediction, -4.0);
}

}  // namespace
}  // namespace dknn
