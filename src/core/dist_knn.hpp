#pragma once
/// \file dist_knn.hpp
/// \brief Algorithm 2 — Distributed ℓ-NN computation (paper §2.2).
///
/// Input: each machine's points already scored against the query as
/// (distance, id) keys.  The protocol:
///
///   1. each machine keeps only its local ℓ best (a single machine can hold
///      at most the whole answer, so anything beyond rank ℓ locally is
///      provably irrelevant);
///   2. each machine samples ~12·ln ℓ of those survivors uniformly without
///      replacement and ships them to the leader — one O(log n)-bit message
///      per sample, matching the paper's message accounting;
///   3. the leader sorts the ~12k·ln ℓ samples and broadcasts the sample at
///      rank ~21·ln ℓ as the pruning radius r;
///   4. machines discard keys beyond r — w.h.p. at most 11ℓ candidates
///      survive globally and all true ℓ-NN survive (Lemma 2.3);
///   5. Algorithm 1 selects the exact ℓ smallest among the survivors.
///
/// Finish (KnnConfig::finish_on_full_sample): when every machine's sample
/// in step 2 is its whole capped list — always for ℓ <= 47 at the default
/// coefficient, where min(ℓ, n_i) <= ⌈12 ln ℓ⌉ — the leader holds the
/// union of all capped lists, which contains the exact answer.  It sorts
/// that pool and broadcasts its min(ℓ, Σ min(ℓ, n_i))-th key as a final
/// radius; every machine returns its capped keys at or below it, and the
/// survivor count, the decision and Algorithm 1 never run.  Cost: at most
/// Σ_i (min(ℓ, n_i) + 2) <= k(⌈12 ln ℓ⌉ + 2) messages (a follower's header
/// and samples in, one radius out) in a constant number of rounds, so the
/// bounds below still hold.  The answer is the same exact top-ℓ.
///
/// Rounds: O(log ℓ), independent of k (Theorem 2.4); messages O(k log ℓ).
///
/// Failure handling: with probability O(1/ℓ²) the radius lands below the
/// true ℓ-th neighbor and step 4 prunes too far.  The leader detects this
/// (surviving count < target) before running Algorithm 1 and — in the
/// default Las Vegas mode — restarts from step 2 with fresh samples; in
/// paper-faithful Monte Carlo mode it proceeds and the result records
/// `prune_ok = false`.

#include <cstdint>
#include <span>
#include <vector>

#include "core/dist_select.hpp"
#include "data/key.hpp"
#include "sim/context.hpp"
#include "sim/task.hpp"

namespace dknn {

struct KnnConfig {
  MachineId leader = 0;
  /// Per-machine sample count coefficient (paper: 12 · log ℓ).
  double sample_coeff = 12.0;
  /// Pruning-radius rank coefficient (paper: 21 · log ℓ).
  double rank_coeff = 21.0;
  /// Retry with fresh samples when pruning provably lost part of the answer
  /// (Las Vegas).  False = paper-faithful Monte Carlo.
  bool las_vegas = true;
  /// Retry budget in Las Vegas mode; exhausting it falls back to no pruning
  /// (radius = +∞), which is always correct.
  std::uint32_t max_retries = 8;
  /// End the query after the sample exchange when every sample was a whole
  /// capped list (the finish above).  Applies only to an attempt that
  /// prunes, so max_retries = 0 never finishes early.  False = the paper's
  /// steps 3-5 always run (the Lemma 2.3 and Theorem 2.4 reproductions).
  bool finish_on_full_sample = true;
};

/// Per-machine outcome of one ℓ-NN run.
struct KnnLocal {
  /// This machine's keys among the global ℓ nearest (ascending).
  std::vector<Key> selected;
  /// Sampling attempts used (1 = first try succeeded).
  std::uint32_t attempts = 1;
  /// Candidates that survived pruning, summed over machines (Lemma 2.3:
  /// <= 11ℓ w.h.p.); after a finish, the keys at or below the final bound
  /// (= min(ℓ, Σ min(ℓ, n_i))).  Same value on every machine.
  std::uint64_t candidates = 0;
  /// Pivot iterations of the inner Algorithm 1 run (0 after a finish).
  std::uint32_t select_iterations = 0;
  /// False only in Monte Carlo mode when pruning lost true neighbors.
  bool prune_ok = true;
};

/// Runs Algorithm 2 over this machine's scored keys.  Every machine calls
/// with the same `ell` and `config`; `local_scored` need not be sorted.
/// Throws PreconditionError with knn_config_error's text for a bad config.
[[nodiscard]] Task<KnnLocal> dist_knn(Ctx& ctx, std::vector<Key> local_scored, std::uint64_t ell,
                                      KnnConfig config = {});

/// The exact text rejecting `config` for a `machines`-machine world, or
/// nullptr when it can run: the leader must be one of the machines and
/// both coefficients finite and >= 0 (0 is legal; the counts below clamp
/// to 1).  KnnServiceBuilder::build() raises it as a ServiceStateError,
/// dist_knn as a PreconditionError.
[[nodiscard]] const char* knn_config_error(const KnnConfig& config, std::uint32_t machines);

/// Per-machine sample count ⌈sample_coeff · ln ℓ⌉ (ℓ clamped to >= 2, count
/// to [1, 2^63]).  Throws PreconditionError with knn_config_error's text
/// for a negative or non-finite coefficient.  Exposed for tests/benches.
[[nodiscard]] std::uint64_t knn_sample_count(std::uint64_t ell, const KnnConfig& config);
/// 1-indexed radius rank ⌈rank_coeff · ln ℓ⌉, clamped and checked likewise.
[[nodiscard]] std::uint64_t knn_radius_rank(std::uint64_t ell, const KnnConfig& config);

}  // namespace dknn
