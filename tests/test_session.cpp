// Tests for core/session: multi-query sessions with integrated leader
// election — equivalence to independent single-query runs, pipelining
// safety under bandwidth limits, cost amortization, and edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/session.hpp"
#include "data/generators.hpp"
#include "rng/rng.hpp"
#include "sim/engine.hpp"

namespace dknn {
namespace {

EngineConfig engine_for(std::uint64_t seed) {
  EngineConfig c;
  c.seed = seed;
  c.measure_compute = false;
  return c;
}

std::vector<ScalarShard> shard_fixture(std::size_t n, std::uint32_t k, std::uint64_t seed) {
  Rng rng(seed);
  auto values = uniform_u64(n, rng);
  return make_scalar_shards(std::move(values), k, PartitionScheme::Random, rng);
}

std::vector<Value> query_fixture(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  return uniform_u64(count, rng);
}

TEST(Session, MatchesIndependentRuns) {
  constexpr std::uint32_t k = 8;
  const auto shards = shard_fixture(2048, k, 1);
  const auto queries = query_fixture(10, 2);
  constexpr std::uint64_t ell = 64;

  const auto session = run_scalar_session(shards, queries, ell, engine_for(3));
  ASSERT_EQ(session.queries.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto scored = score_scalar_shards(shards, queries[q]);
    EXPECT_EQ(session.queries[q].keys, expected_smallest(scored, ell)) << "query " << q;
    EXPECT_EQ(session.queries[q].query, queries[q]);
  }
}

class SessionElectionSweep : public ::testing::TestWithParam<ElectionProtocol> {};

TEST_P(SessionElectionSweep, AnyElectionProtocolGivesCorrectAnswers) {
  constexpr std::uint32_t k = 12;
  const auto shards = shard_fixture(1024, k, 4);
  const auto queries = query_fixture(5, 5);
  SessionConfig config;
  config.election = GetParam();
  const auto session = run_scalar_session(shards, queries, 32, engine_for(6), config);
  EXPECT_LT(session.leader, k);
  if (GetParam() == ElectionProtocol::None) {
    EXPECT_EQ(session.leader, 0u);
    EXPECT_EQ(session.election_rounds, 0u);
  } else {
    EXPECT_GE(session.election_rounds, 1u);
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto scored = score_scalar_shards(shards, queries[q]);
    EXPECT_EQ(session.queries[q].keys, expected_smallest(scored, 32)) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, SessionElectionSweep,
                         ::testing::Values(ElectionProtocol::None, ElectionProtocol::MinId,
                                           ElectionProtocol::Sublinear));

TEST(Session, PipeliningSafeUnderChunkedBandwidth) {
  // Straggling messages from query q must never leak into query q+1 even
  // when every transfer spans multiple rounds.  ℓ <= 47 ends each query
  // with the leader's final radius (the finish), ℓ = 48 with Algorithm 1's
  // Finished; both message sequences must pipeline.
  constexpr std::uint32_t k = 6;
  const auto shards = shard_fixture(1200, k, 7);
  const auto queries = query_fixture(8, 8);
  auto config = engine_for(9);
  config.bandwidth = BandwidthPolicy::Chunked;
  config.bits_per_round = 128;
  for (std::uint64_t ell : {16u, 47u, 48u}) {
    const auto session = run_scalar_session(shards, queries, ell, config);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto scored = score_scalar_shards(shards, queries[q]);
      EXPECT_EQ(session.queries[q].keys, expected_smallest(scored, ell))
          << "ell " << ell << " query " << q;
    }
  }
}

TEST(Session, ElectionCostIsPaidOnce) {
  // Session rounds ~ election + sum of per-query rounds: amortizing the
  // election across queries.
  constexpr std::uint32_t k = 16;
  const auto shards = shard_fixture(2048, k, 10);
  const auto queries = query_fixture(6, 11);
  const auto session = run_scalar_session(shards, queries, 64, engine_for(12));
  std::uint64_t per_query_sum = 0;
  for (const auto& sq : session.queries) {
    per_query_sum += sq.rounds;
    EXPECT_GT(sq.rounds, 0u);
  }
  EXPECT_LE(session.report.rounds, session.election_rounds + per_query_sum + 2);
  EXPECT_GE(session.report.rounds, per_query_sum);
}

TEST(Session, RoundsPerQueryStayLogarithmic) {
  constexpr std::uint32_t k = 32;
  const auto shards = shard_fixture(1 << 14, k, 13);
  const auto queries = query_fixture(5, 14);
  constexpr std::uint64_t ell = 256;
  const auto session = run_scalar_session(shards, queries, ell, engine_for(15));
  for (const auto& sq : session.queries) {
    EXPECT_LE(sq.rounds, 30.0 * std::log2(static_cast<double>(ell)));
  }
}

TEST(Session, EmptyQueryListIsJustElection) {
  const auto shards = shard_fixture(256, 4, 16);
  const auto session = run_scalar_session(shards, {}, 8, engine_for(17));
  EXPECT_TRUE(session.queries.empty());
  EXPECT_LT(session.leader, 4u);
}

TEST(Session, SingleMachineSession) {
  const auto shards = shard_fixture(128, 1, 18);
  const auto queries = query_fixture(3, 19);
  const auto session = run_scalar_session(shards, queries, 10, engine_for(20));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto scored = score_scalar_shards(shards, queries[q]);
    EXPECT_EQ(session.queries[q].keys, expected_smallest(scored, 10));
  }
  EXPECT_EQ(session.leader, 0u);
}

TEST(Session, DeterministicForSeed) {
  const auto shards = shard_fixture(1024, 8, 21);
  const auto queries = query_fixture(4, 22);
  const auto a = run_scalar_session(shards, queries, 32, engine_for(23));
  const auto b = run_scalar_session(shards, queries, 32, engine_for(23));
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    EXPECT_EQ(a.queries[q].keys, b.queries[q].keys);
  }
}

// --- vector sessions (k-d tree accelerated) -----------------------------------------

TEST(VectorSession, MatchesBruteScoredRuns) {
  constexpr std::uint32_t k = 6;
  Rng rng(30);
  auto points = uniform_points(900, 3, 80.0, rng);
  auto shards = make_vector_shards(points, k, PartitionScheme::Random, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Tree);
  auto queries = uniform_points(7, 3, 90.0, rng);

  constexpr std::uint64_t ell = 25;
  const auto session =
      run_vector_session(indexes, queries, ell, engine_for(31));
  ASSERT_EQ(session.queries.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto scored = score_vector_shards(shards, queries[q], EuclideanMetric{});
    EXPECT_EQ(session.queries[q].keys, expected_smallest(scored, ell)) << "query " << q;
  }
}

TEST(VectorSession, ElectionIntegration) {
  constexpr std::uint32_t k = 9;
  Rng rng(32);
  auto points = uniform_points(450, 2, 50.0, rng);
  auto shards = make_vector_shards(points, k, PartitionScheme::Random, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Tree);
  auto queries = uniform_points(3, 2, 50.0, rng);
  SessionConfig config;
  config.election = ElectionProtocol::Sublinear;
  const auto session = run_vector_session(indexes, queries, 12, engine_for(33), config);
  EXPECT_LT(session.leader, k);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto scored = score_vector_shards(shards, queries[q], EuclideanMetric{});
    EXPECT_EQ(session.queries[q].keys, expected_smallest(scored, 12)) << "query " << q;
  }
}

TEST(VectorSession, EmptyShardsMixedIn) {
  // Machines with no points participate without contributing.
  std::vector<VectorShard> shards(4);
  Rng rng(34);
  shards[1].points = uniform_points(40, 2, 10.0, rng);
  shards[1].ids = assign_random_ids(40, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Tree);
  auto queries = uniform_points(2, 2, 10.0, rng);
  const auto session = run_vector_session(indexes, queries, 5, engine_for(35));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto scored = score_vector_shards(shards, queries[q], EuclideanMetric{});
    EXPECT_EQ(session.queries[q].keys, expected_smallest(scored, 5)) << "query " << q;
  }
}

// --- the batch runner's round rule -------------------------------------------------

/// k = 8, 4,096 values, 4 queries: at ℓ = 16 every query ends at the
/// finish, at ℓ = 64 Algorithm 1 runs.
struct RoundFixture {
  std::vector<ScalarShard> shards = shard_fixture(4096, 8, 16);
  std::vector<Value> queries = query_fixture(4, 18);
  EngineConfig engine = engine_for(20);
};

std::vector<std::uint64_t> rounds_of(const SessionResult& session) {
  std::vector<std::uint64_t> rounds;
  for (const auto& sq : session.queries) rounds.push_back(sq.rounds);
  return rounds;
}

std::vector<std::uint64_t> rounds_of(const BatchRunResult& batch) {
  std::vector<std::uint64_t> rounds;
  for (const auto& one : batch.per_query) rounds.push_back(one.report.rounds);
  return rounds;
}

std::uint64_t sum_of(const std::vector<std::uint64_t>& rounds) {
  std::uint64_t sum = 0;
  for (const std::uint64_t r : rounds) sum += r;
  return sum;
}

TEST(SessionRounds, ScalarWithoutElectionCountsLikeRunKnnBatch) {
  const RoundFixture fx;
  SessionConfig config;
  config.election = ElectionProtocol::None;
  for (const std::uint64_t ell : {16u, 64u}) {
    std::vector<std::vector<std::vector<Key>>> scored;
    for (const Value q : fx.queries) scored.push_back(score_scalar_shards(fx.shards, q));
    const BatchRunResult batch = run_knn_batch(scored, ell, KnnAlgo::DistKnn, fx.engine);
    const SessionResult session = run_scalar_session(fx.shards, fx.queries, ell, fx.engine, config);
    EXPECT_EQ(rounds_of(session), rounds_of(batch)) << "ell " << ell;
    EXPECT_EQ(sum_of(rounds_of(session)), session.report.rounds) << "ell " << ell;
    EXPECT_EQ(session.report.rounds, batch.report.rounds) << "ell " << ell;
    EXPECT_EQ(session.report.traffic.messages_sent(), batch.report.traffic.messages_sent());
    EXPECT_EQ(session.election_rounds, 0u);
    EXPECT_EQ(session.queries[0].rounds, ell == 16 ? 3u : 39u) << "ell " << ell;
  }
}

TEST(SessionRounds, VectorWithoutElectionCountsLikeRunKnnBatch) {
  constexpr std::uint32_t k = 6;
  Rng rng(36);
  auto shards = make_vector_shards(uniform_points(3000, 3, 80.0, rng), k,
                                   PartitionScheme::Random, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Tree);
  const auto queries = uniform_points(5, 3, 90.0, rng);
  SessionConfig config;
  config.election = ElectionProtocol::None;
  for (const std::uint64_t ell : {16u, 64u}) {
    const auto scored =
        score_vector_shards_batch(indexes, queries, ell, MetricKind::Euclidean);
    const BatchRunResult batch = run_knn_batch(scored, ell, KnnAlgo::DistKnn, engine_for(37));
    const SessionResult session = run_vector_session(indexes, queries, ell, engine_for(37), config);
    EXPECT_EQ(rounds_of(session), rounds_of(batch)) << "ell " << ell;
    EXPECT_EQ(sum_of(rounds_of(session)), session.report.rounds) << "ell " << ell;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(session.queries[q].keys, batch.per_query[q].keys) << "query " << q;
    }
  }
}

TEST(SessionRounds, ElectionsKeepTheirRounds) {
  // Pinned counts for sessions that elect: query 0's rounds start after the
  // election's last round (F(−1)).  These per-query rounds, election rounds
  // and report values must not move.
  struct Pin {
    ElectionProtocol election;
    std::uint64_t ell;
    std::vector<std::uint64_t> rounds;
    std::uint64_t election_rounds;
    std::uint64_t total_rounds;
    std::uint64_t messages;
    std::uint64_t bits;
  };
  const Pin pins[] = {
      {ElectionProtocol::MinId, 16, {2, 2, 2, 2}, 1, 10, 560, 67648},
      {ElectionProtocol::Sublinear, 16, {2, 2, 2, 2}, 3, 12, 581, 68936},
      {ElectionProtocol::MinId, 64, {38, 36, 58, 34}, 1, 168, 2238, 310184},
      {ElectionProtocol::Sublinear, 64, {44, 38, 42, 42}, 3, 170, 2259, 311472},
  };
  const RoundFixture fx;
  for (const Pin& pin : pins) {
    SessionConfig config;
    config.election = pin.election;
    const SessionResult session =
        run_scalar_session(fx.shards, fx.queries, pin.ell, fx.engine, config);
    const auto name = static_cast<int>(pin.election);
    EXPECT_EQ(rounds_of(session), pin.rounds) << "election " << name << " ell " << pin.ell;
    EXPECT_EQ(session.election_rounds, pin.election_rounds) << "election " << name;
    EXPECT_EQ(session.report.rounds, pin.total_rounds) << "election " << name;
    EXPECT_EQ(session.report.traffic.messages_sent(), pin.messages) << "election " << name;
    EXPECT_EQ(session.report.traffic.bits_sent(), pin.bits) << "election " << name;
    // The per-query counts start after the election's last round.
    EXPECT_EQ(session.election_rounds + sum_of(pin.rounds) + 1, session.report.rounds);
  }
}

TEST(Session, ParallelExecutorMatchesSequential) {
  const auto shards = shard_fixture(2048, 8, 24);
  const auto queries = query_fixture(5, 25);
  auto seq_config = engine_for(26);
  auto par_config = seq_config;
  par_config.parallel = true;
  par_config.threads = 4;
  const auto seq = run_scalar_session(shards, queries, 64, seq_config);
  const auto par = run_scalar_session(shards, queries, 64, par_config);
  EXPECT_EQ(seq.leader, par.leader);
  EXPECT_EQ(seq.report.rounds, par.report.rounds);
  EXPECT_EQ(rounds_of(seq), rounds_of(par));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(seq.queries[q].keys, par.queries[q].keys);
  }
}

TEST(VectorSession, ParallelExecutorMatchesSequential) {
  Rng rng(27);
  auto shards = make_vector_shards(uniform_points(1200, 3, 80.0, rng), 6,
                                   PartitionScheme::Random, rng);
  const auto indexes = make_shard_indexes(shards, ScoringPolicy::Tree);
  const auto queries = uniform_points(4, 3, 90.0, rng);
  auto seq_config = engine_for(28);
  auto par_config = seq_config;
  par_config.parallel = true;
  par_config.threads = 4;
  const auto seq = run_vector_session(indexes, queries, 32, seq_config);
  const auto par = run_vector_session(indexes, queries, 32, par_config);
  EXPECT_EQ(seq.leader, par.leader);
  EXPECT_EQ(seq.report.rounds, par.report.rounds);
  EXPECT_EQ(rounds_of(seq), rounds_of(par));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(seq.queries[q].keys, par.queries[q].keys);
  }
}

}  // namespace
}  // namespace dknn
