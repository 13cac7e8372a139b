#pragma once
/// \file session.hpp
/// \brief Multi-query sessions: the paper's serving scenario.
///
/// The model statement (§1.1) is about answering *queries* arriving at the
/// cluster: "the goal is to quickly compute answer given a query point to a
/// machine".  A session elects a leader once (with the sublinear protocol
/// of [9] the paper cites, or min-ID) and then streams any number of
/// queries through Algorithm 2 within a single engine run — machines keep
/// their shard resident, score each query locally (free in the model), and
/// pay only the O(log ℓ) protocol rounds per query.
///
/// Two concrete frontends share one generic core:
///   * run_scalar_session  — uint64 values, |v − q| distance (paper §3);
///   * run_vector_session  — d-dimensional points under the Euclidean
///     metric, each machine scoring its local top-ℓ from its resident
///     ShardIndex (the kd-hybrid when the shard carries a tree).
///
/// Pipelining note: consecutive Algorithm 2 instances are crosstalk-free
/// because a follower cannot start query q+1 before the leader's final
/// `Radius` (the finish) or Algorithm 1's `Finished` for q, and the leader
/// sends either only after consuming all of that follower's messages for q,
/// so per-sender FIFO delivery keeps instances separated; an integration
/// test certifies both endings under chunked bandwidth.

#include <cstdint>
#include <span>
#include <vector>

#include "core/dist_knn.hpp"
#include "core/driver.hpp"
#include "election/min_id.hpp"
#include "election/sublinear.hpp"
#include "sim/engine.hpp"

namespace dknn {

enum class ElectionProtocol : std::uint8_t {
  None,       ///< use KnnConfig::leader as given (machine 0 by default)
  MinId,      ///< 1 round, k² messages
  Sublinear,  ///< O(1) rounds, O(√k log^{3/2} k) messages (paper's choice)
};

struct SessionConfig {
  ElectionProtocol election = ElectionProtocol::Sublinear;
  KnnConfig knn;  ///< leader field is overwritten when an election runs
};

/// One query's outcome within a session.
struct SessionQueryResult {
  std::size_t index = 0;          ///< position in the query stream
  Value query = 0;                ///< scalar sessions only; 0 otherwise
  std::vector<Key> keys;          ///< the ℓ winners, ascending
  std::uint64_t rounds = 0;       ///< rounds from the previous query's (or the
                                  ///< election's) last round on any machine
                                  ///< to this query's
  std::uint32_t attempts = 1;     ///< Algorithm 2 sampling attempts
  std::uint64_t candidates = 0;   ///< post-prune survivors (after the finish:
                                  ///< keys at or below the final bound)
};

struct SessionResult {
  MachineId leader = kNoMachine;
  std::uint64_t election_rounds = 0;
  std::vector<SessionQueryResult> queries;
  RunReport report;  ///< whole-session engine report
};

namespace detail {

/// Per-machine output slot for a whole session.
struct SessionSlot {
  MachineId leader = kNoMachine;
  std::uint64_t election_rounds = 0;
  std::vector<std::vector<Key>> selected;  ///< per query, this machine's winners
  std::vector<std::uint64_t> finished;     ///< per query, the round this machine finished it
  std::vector<std::uint32_t> attempts;
  std::vector<std::uint64_t> candidates;
};

/// The generic session machine program.  `Scorer` maps (machine id, query
/// index) to that machine's scored keys — any shard representation plugs in.
template <typename Scorer>
Task<void> session_program(Ctx& ctx, Scorer scorer, std::size_t num_queries, std::uint64_t ell,
                           SessionConfig config, std::vector<SessionSlot>* slots) {
  SessionSlot& slot = (*slots)[ctx.id()];

  // --- once per session: leader election -------------------------------------
  KnnConfig knn = config.knn;
  const std::uint64_t round0 = ctx.current_round();
  switch (config.election) {
    case ElectionProtocol::None:
      break;
    case ElectionProtocol::MinId: {
      const ElectionOutcome outcome = co_await elect_min_id(ctx);
      knn.leader = outcome.leader;
      break;
    }
    case ElectionProtocol::Sublinear: {
      const ElectionOutcome outcome = co_await elect_sublinear(ctx);
      knn.leader = outcome.leader;
      break;
    }
  }
  slot.leader = knn.leader;
  slot.election_rounds = ctx.current_round() - round0;

  // --- per query: local scoring (free in the model) + Algorithm 2 -------------
  slot.selected.reserve(num_queries);
  for (std::size_t qi = 0; qi < num_queries; ++qi) {
    std::vector<Key> scored = scorer(ctx.id(), qi);
    KnnLocal local = co_await dist_knn(ctx, std::move(scored), ell, knn);
    slot.selected.push_back(std::move(local.selected));
    slot.finished.push_back(ctx.current_round());
    slot.attempts.push_back(local.attempts);
    slot.candidates.push_back(local.candidates);
  }
}

/// Merges per-machine slots into the caller-facing result.
[[nodiscard]] SessionResult assemble_session(std::vector<SessionSlot> slots, RunReport report,
                                             std::size_t num_queries);

/// Runs the generic program over `world` machines.
template <typename Scorer>
[[nodiscard]] SessionResult run_session(std::uint32_t world, Scorer scorer,
                                        std::size_t num_queries, std::uint64_t ell,
                                        const EngineConfig& engine_config,
                                        const SessionConfig& session_config) {
  EngineConfig config = engine_config;
  config.world_size = world;
  Engine engine(config);
  std::vector<SessionSlot> slots(world);
  RunReport report = engine.run([&](Ctx& ctx) {
    return session_program(ctx, scorer, num_queries, ell, session_config, &slots);
  });
  return assemble_session(std::move(slots), std::move(report), num_queries);
}

}  // namespace detail

/// Runs `queries` against a sharded scalar dataset in one engine run.
[[nodiscard]] SessionResult run_scalar_session(const std::vector<ScalarShard>& shards,
                                               std::span<const Value> queries, std::uint64_t ell,
                                               const EngineConfig& engine_config,
                                               const SessionConfig& session_config = {});

/// Runs d-dimensional `queries` against vector shards under the Euclidean
/// metric.  Machine m scores its local top-ℓ from `indexes[m]` (built once
/// with make_shard_indexes; ScoringPolicy::Tree prunes with the kd-hybrid
/// instead of an O(n_i·d) scan) through shard_top_ell_batch, while the
/// distributed protocol and its costs are unchanged.
[[nodiscard]] SessionResult run_vector_session(const std::vector<ShardIndex>& indexes,
                                               std::span<const PointD> queries,
                                               std::uint64_t ell,
                                               const EngineConfig& engine_config,
                                               const SessionConfig& session_config = {});

}  // namespace dknn
