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
/// Two concrete frontends:
///   * run_scalar_session  — uint64 values, |v − q| distance (paper §3);
///   * run_vector_session  — d-dimensional points under the Euclidean
///     metric, each machine scoring its local top-ℓ from its resident
///     ShardIndex (the kd-hybrid when the shard carries a tree).
/// Both run on the batch runner behind run_knn_batch and the
/// classify/regress batches (core/driver.cpp): the election is its
/// prologue, and each query is Algorithm 2 over the machine's freshly
/// scored keys.  So a session shares run_knn_batch's round rule
/// (BatchRunResult in driver.hpp) and this note.
///
/// Pipelining note: consecutive Algorithm 2 instances are crosstalk-free
/// because a follower cannot start query q+1 before the leader's final
/// `Radius` (the finish) or Algorithm 1's `Finished` for q, and the leader
/// sends either only after consuming all of that follower's messages for q,
/// so per-sender FIFO delivery keeps instances separated; an integration
/// test certifies both endings under chunked bandwidth.  The same holds for
/// every batch the runner drives.

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
  /// One all-to-all exchange of k(k−1) messages, sent in one superstep
  /// and read in the next: run alone it reports 2 engine rounds, and a
  /// session's election_rounds reads 1 (its queries start in the reading
  /// superstep).
  MinId,
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
  std::uint64_t rounds = 0;       ///< BatchRunResult's rule: F(q) − F(q − 1),
                                  ///< F(q) the latest round any machine
                                  ///< finished query q, F(−1) the election's
                                  ///< last round on any machine, or −1
                                  ///< without an election (then the counts
                                  ///< equal run_knn_batch's and sum to
                                  ///< report.rounds)
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
