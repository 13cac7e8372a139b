#include "core/session.hpp"

#include <functional>

#include "core/batch_runner.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace detail {

Task<ElectionOutcome> elect_leader(Ctx& ctx, bool min_id) {
  if (min_id) co_return co_await elect_min_id(ctx);
  co_return co_await elect_sublinear(ctx);
}

}  // namespace detail

namespace {

/// Both frontends: `scorer(m, q)` is machine m's scored keys for query q,
/// computed inside the run (local scoring is free in the model).
template <typename Scorer>
SessionResult run_session_queries(std::uint32_t world, const Scorer& scorer,
                                  std::size_t num_queries, std::uint64_t ell,
                                  const EngineConfig& engine_config,
                                  const SessionConfig& session_config) {
  const auto elect = [min_id = session_config.election == ElectionProtocol::MinId](Ctx& ctx) {
    return detail::elect_leader(ctx, min_id);
  };
  const auto step = [&](Ctx& ctx, std::size_t q, MachineId leader, detail::QuerySlot& slot) {
    return detail::knn_step(ctx, scorer(ctx.id(), q), ell, KnnAlgo::DistKnn, session_config.knn,
                            leader, slot);
  };
  detail::BatchHooks hooks{.step = std::ref(step)};
  if (session_config.election != ElectionProtocol::None) hooks.prologue = std::ref(elect);
  detail::BatchRun run =
      detail::run_batch(world, num_queries, session_config.knn.leader, engine_config, hooks);

  SessionResult result{run.leader, run.prologue_rounds, {}, std::move(run.result.report)};
  result.queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    GlobalRunResult& one = run.result.per_query[q];
    result.queries.push_back(
        {q, 0, std::move(one.keys), one.report.rounds, one.attempts, one.candidates});
  }
  return result;
}

}  // namespace

SessionResult run_scalar_session(const std::vector<ScalarShard>& shards,
                                 std::span<const Value> queries, std::uint64_t ell,
                                 const EngineConfig& engine_config,
                                 const SessionConfig& session_config) {
  DKNN_REQUIRE(!shards.empty(), "need at least one shard");
  const auto scorer = [&shards, queries](MachineId machine, std::size_t q) {
    return score_scalar_shard(shards[machine], queries[q]);
  };
  SessionResult result =
      run_session_queries(static_cast<std::uint32_t>(shards.size()), scorer, queries.size(), ell,
                          engine_config, session_config);
  for (std::size_t q = 0; q < queries.size(); ++q) result.queries[q].query = queries[q];
  return result;
}

SessionResult run_vector_session(const std::vector<ShardIndex>& indexes,
                                 std::span<const PointD> queries, std::uint64_t ell,
                                 const EngineConfig& engine_config,
                                 const SessionConfig& session_config) {
  DKNN_REQUIRE(!indexes.empty(), "need at least one index");
  // One scratch per machine: machines may run on parallel executor threads.
  std::vector<KernelScratch> scratch(indexes.size());
  const auto scorer = [&indexes, &scratch, queries, ell](MachineId machine, std::size_t q) {
    std::vector<std::vector<Key>> out;
    shard_top_ell_batch(indexes[machine], nullptr, queries.subspan(q, 1),
                        static_cast<std::size_t>(ell), MetricKind::Euclidean,
                        /*approx=*/false, out, scratch[machine]);
    return std::move(out[0]);
  };
  return run_session_queries(static_cast<std::uint32_t>(indexes.size()), scorer, queries.size(),
                             ell, engine_config, session_config);
}

}  // namespace dknn
