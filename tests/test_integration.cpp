// Cross-module integration tests: executor equivalence on the full
// Algorithm 2 stack, BSP cost-model sanity (the Figure 2 mechanism),
// election + selection composed in one run, and failure injection on the
// real protocols.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/dist_knn.hpp"
#include "core/driver.hpp"
#include "core/simple_knn.hpp"
#include "data/generators.hpp"
#include "election/sublinear.hpp"
#include "net/fault.hpp"
#include "rng/rng.hpp"
#include "sim/collectives.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace dknn {
namespace {

std::vector<std::vector<Key>> scored_fixture(std::size_t n, std::uint32_t k, std::uint64_t seed) {
  Rng rng(seed);
  auto values = uniform_u64(n, rng);
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::Random, rng);
  return score_scalar_shards(shards, rng.between(0, (1ULL << 32) - 1));
}

// --- executor equivalence on the real algorithms -------------------------------------

TEST(Integration, ParallelExecutorMatchesSequentialOnDistKnn) {
  constexpr std::uint32_t k = 12;
  auto scored = scored_fixture(3000, k, 1);
  EngineConfig seq_config;
  seq_config.seed = 5;
  seq_config.measure_compute = false;
  EngineConfig par_config = seq_config;
  par_config.parallel = true;
  par_config.threads = 4;

  // ℓ = 16 ends at the finish (every sample a whole capped list), ℓ = 200
  // runs the paper's prune and Algorithm 1.
  for (std::uint64_t ell : {16u, 200u}) {
    const auto seq_result = run_knn(scored, ell, KnnAlgo::DistKnn, seq_config);
    const auto par_result = run_knn(scored, ell, KnnAlgo::DistKnn, par_config);
    EXPECT_EQ(seq_result.keys, par_result.keys) << "ell " << ell;
    EXPECT_EQ(seq_result.report.rounds, par_result.report.rounds) << "ell " << ell;
    EXPECT_EQ(seq_result.report.traffic.messages_sent(),
              par_result.report.traffic.messages_sent())
        << "ell " << ell;
    EXPECT_EQ(seq_result.report.traffic.bits_sent(), par_result.report.traffic.bits_sent())
        << "ell " << ell;
    EXPECT_EQ(seq_result.iterations, par_result.iterations) << "ell " << ell;
    EXPECT_EQ(seq_result.candidates, par_result.candidates) << "ell " << ell;
  }
}

// --- cost model: the Figure 2 mechanism ------------------------------------------------

TEST(Integration, BspCostPrefersAlgorithm2AtLargeEll) {
  // Reproduce the paper's comparison mechanism end-to-end at small scale:
  // under bandwidth-limited links and per-round latency, simulated
  // wall-clock of the simple method must exceed Algorithm 2's for large ℓ.
  // Compute is not measured, so the cost is rounds × α alone and the
  // comparison is deterministic (at seed 3: 515 rounds against 115).
  constexpr std::uint32_t k = 8;
  auto scored = scored_fixture(1 << 13, k, 2);
  EngineConfig config;
  config.seed = 3;
  config.bandwidth = BandwidthPolicy::Chunked;
  config.bits_per_round = 256;
  config.measure_compute = false;
  constexpr std::uint64_t ell = 1024;

  const auto fast = run_knn(scored, ell, KnnAlgo::DistKnn, config);
  const auto slow = run_knn(scored, ell, KnnAlgo::Simple, config);
  ASSERT_EQ(fast.keys, slow.keys);

  CostModelConfig cost_config;
  cost_config.alpha_us = 25.0;
  const SimCost fast_cost = bsp_cost(fast.report, cost_config);
  const SimCost slow_cost = bsp_cost(slow.report, cost_config);
  EXPECT_GT(slow_cost.total_sec, fast_cost.total_sec);
  // The ratio is the quantity Figure 2 plots; at ell=1024 it must be > 2.
  EXPECT_GT(slow_cost.total_sec / fast_cost.total_sec, 2.0);
}

TEST(Integration, RoundMaxTimesSumToCriticalPath) {
  auto scored = scored_fixture(2000, 6, 4);
  EngineConfig config;
  config.seed = 7;
  config.measure_compute = true;
  const auto result = run_knn(scored, 100, KnnAlgo::DistKnn, config);
  std::uint64_t sum = 0;
  for (std::uint64_t v : result.report.round_max_comp_ns) sum += v;
  EXPECT_EQ(sum, result.report.critical_path_comp_ns);
  EXPECT_EQ(result.report.round_max_comp_ns.size(), result.report.rounds);
  EXPECT_GE(result.report.total_comp_ns, result.report.critical_path_comp_ns);
}

// --- election composed with selection ----------------------------------------------------

Task<void> elected_selection_program(Ctx& ctx, const std::vector<std::vector<Key>>* shards,
                                     std::uint64_t ell, std::vector<std::vector<Key>>* out) {
  // First elect a leader with the sublinear protocol, then run Algorithm 2
  // with that leader — the full pipeline of the paper's §2.2 step 1.
  const ElectionOutcome election = co_await elect_sublinear(ctx);
  KnnConfig config;
  config.leader = election.leader;
  KnnLocal local = co_await dist_knn(ctx, (*shards)[ctx.id()], ell, config);
  (*out)[ctx.id()] = std::move(local.selected);
}

TEST(Integration, ElectionThenKnnPipeline) {
  constexpr std::uint32_t k = 16;
  auto scored = scored_fixture(2048, k, 5);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    EngineConfig config;
    config.world_size = k;
    config.seed = seed;
    config.measure_compute = false;
    Engine engine(config);
    std::vector<std::vector<Key>> out(k);
    (void)engine.run([&](Ctx& ctx) {
      return elected_selection_program(ctx, &scored, 128, &out);
    });
    std::vector<Key> merged;
    for (const auto& part : out) merged.insert(merged.end(), part.begin(), part.end());
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, expected_smallest(scored, 128)) << "seed " << seed;
  }
}

// --- failure injection on the real protocol ------------------------------------------------

Task<void> knn_under_fire(Ctx& ctx, const std::vector<std::vector<Key>>* shards,
                          std::uint64_t ell) {
  (void)co_await dist_knn(ctx, (*shards)[ctx.id()], ell, KnnConfig{});
}

TEST(Integration, DroppedSampleMessageDeadlocksDeterministically) {
  // Algorithm 2 assumes the model's reliable links: dropping one sample
  // message must surface as SimError (round-cap), never a silent wrong
  // answer or a hang.
  constexpr std::uint32_t k = 6;
  auto scored = scored_fixture(600, k, 6);
  EngineConfig config;
  config.world_size = k;
  config.seed = 8;
  config.max_rounds = 2000;
  config.measure_compute = false;
  Engine engine(config);
  FaultPlan plan;
  plan.drop_probability = 1.0;
  plan.only_tag = tags::kKnnSampleHeader;
  plan.max_drops = 1;
  FaultInjector injector(engine.network(), plan, 9);
  EXPECT_THROW(
      (void)engine.run([&](Ctx& ctx) { return knn_under_fire(ctx, &scored, 64); }),
      SimError);
  EXPECT_EQ(injector.drops(), 1u);
}

TEST(Integration, LossBelowProtocolTagsIsHarmless) {
  // Dropping messages of a tag the protocol never uses must not disturb it.
  constexpr std::uint32_t k = 4;
  auto scored = scored_fixture(400, k, 7);
  EngineConfig config;
  config.world_size = k;
  config.seed = 10;
  config.measure_compute = false;
  Engine engine(config);
  FaultPlan plan;
  plan.drop_probability = 1.0;
  plan.only_tag = Tag{0x7777};  // unused tag
  FaultInjector injector(engine.network(), plan, 11);
  std::vector<std::vector<Key>> dummy(k);
  EXPECT_NO_THROW((void)engine.run([&](Ctx& ctx) { return knn_under_fire(ctx, &scored, 32); }));
  EXPECT_EQ(injector.drops(), 0u);
}

// --- simple baseline under strict accounting ------------------------------------------------

Task<void> simple_program(Ctx& ctx, const std::vector<std::vector<Key>>* shards,
                          std::uint64_t ell, std::vector<std::vector<Key>>* out) {
  SimpleKnnLocal local = co_await simple_knn(ctx, (*shards)[ctx.id()], ell, SimpleKnnConfig{});
  (*out)[ctx.id()] = std::move(local.selected);
}

TEST(Integration, SimpleGatherRoundsMatchTheory) {
  // rounds ≈ ceil(ℓ · key_bits / B) + constant; key = 16 bytes plus vector
  // length varint.
  constexpr std::uint32_t k = 4;
  constexpr std::uint64_t ell = 256;
  auto scored = scored_fixture(1 << 12, k, 8);
  EngineConfig config;
  config.world_size = k;
  config.seed = 11;
  config.bandwidth = BandwidthPolicy::Chunked;
  config.bits_per_round = 128;  // exactly one key per round
  config.measure_compute = false;
  Engine engine(config);
  std::vector<std::vector<Key>> out(k);
  const RunReport report =
      engine.run([&](Ctx& ctx) { return simple_program(ctx, &scored, ell, &out); });
  EXPECT_GE(report.rounds, ell);          // at least one round per key
  EXPECT_LE(report.rounds, ell + 10);     // plus varint/announce overhead
}

}  // namespace
}  // namespace dknn
