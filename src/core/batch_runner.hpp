#pragma once
/// \file batch_runner.hpp
/// \brief Internal, not part of the public API (dknn.hpp does not include
///        it): the one engine runner under run_knn, run_knn_batch,
///        run_selection, the classify/regress entries, the sessions and
///        recovery's survivor election (a run of zero queries).
///
/// A batch run puts B queries through one engine, back to back on every
/// machine: an optional prologue (an election), then per query the
/// caller's step (Algorithm 2 through knn_step, or Algorithm 1) and an
/// optional epilogue (classification's payload gather).  Per-sender FIFO
/// delivery keeps consecutive queries apart (session.hpp's pipelining
/// note).  The runner merges the machines' slots per query (winners sorted,
/// the leader's counters) and charges query q the rounds F(q) − F(q − 1),
/// where F(q) is the latest round any machine finished q (its epilogue
/// included) and F(−1) the latest round any machine ended the prologue, or
/// −1 without one.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/driver.hpp"  // KnnAlgo, BatchRunResult, and the engine types
#include "election/election.hpp"

namespace dknn::detail {

/// What one machine's step writes for one query.
struct QuerySlot {
  std::vector<Key> selected;  ///< this machine's winners
  std::uint32_t iterations = 0;
  std::uint32_t attempts = 1;
  std::uint64_t candidates = 0;
  bool prune_ok = true;
};

/// The caller's parts of a run.  Each hook returns the Task of a coroutine
/// that takes what it uses by value, or through pointers whose owners
/// outlive the run; no hook is itself a capturing coroutine lambda.  Pass
/// lambdas as std::ref(lambda): a std::function holding a reference_wrapper
/// never allocates.
struct BatchHooks {
  /// Optional, once per machine before query 0: an election, whose leader
  /// every step, epilogue and the merge use.
  std::function<Task<ElectionOutcome>(Ctx&)> prologue{};
  /// Query q on one machine: fills `slot`.
  std::function<Task<void>(Ctx&, std::size_t q, MachineId leader, QuerySlot& slot)> step{};
  /// Optional, after query q's step on the same machine.
  std::function<Task<void>(Ctx&, std::size_t q, MachineId leader, const QuerySlot& slot)>
      epilogue{};
};

/// A run's outcome.  result.per_query[q] holds query q's merged slots, and
/// its report only the rounds above; result.report is the whole run's.
struct BatchRun {
  BatchRunResult result;
  MachineId leader = kNoMachine;      ///< the prologue's, else the caller's
  std::uint64_t prologue_rounds = 0;  ///< the round the leader ended the prologue
  std::uint32_t attempts = 1;         ///< the prologue election's attempts
};

/// Runs `queries` queries over `world` machines in one engine; `leader`
/// stands unless a prologue elects another.
[[nodiscard]] BatchRun run_batch(std::uint32_t world, std::size_t queries, MachineId leader,
                                 const EngineConfig& engine_config, const BatchHooks& hooks);

/// The machine count of a [query][machine] batch.  Throws unless the batch
/// has a query and a machine, and every query covers the same machines.
[[nodiscard]] std::size_t batch_world(const std::vector<std::vector<std::vector<Key>>>& batch);

/// The prologue of every election caller: min-id or the sublinear
/// protocol.  An if, never a conditional expression with a co_await in
/// each arm: g++ 12 runs both arms of one, so both elections would run and
/// be paid.
[[nodiscard]] Task<ElectionOutcome> elect_leader(Ctx& ctx, bool min_id);

/// The step of every Algorithm 2 caller: `algo` over this machine's keys
/// for one query, led by `leader` (it replaces knn_config.leader).
[[nodiscard]] Task<void> knn_step(Ctx& ctx, std::vector<Key> mine, std::uint64_t ell,
                                  KnnAlgo algo, KnnConfig knn_config, MachineId leader,
                                  QuerySlot& slot);

}  // namespace dknn::detail
