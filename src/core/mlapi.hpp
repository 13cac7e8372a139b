#pragma once
/// \file mlapi.hpp
/// \brief The machine-learning face of ℓ-NN: distributed classification
///        (majority vote) and regression (mean of targets) — the use cases
///        the paper's introduction motivates (§1: "In the classification
///        problem, one can use the majority of the labels of the K-nearest
///        neighbors... In the regression problem, one can assign the
///        average of the labels").
///
/// Flow per query: score locally → Algorithm 2 picks the global ℓ-NN →
/// each machine ships (key, label/target) for its winners to the leader
/// (one message per non-leader machine; the winners are exactly ℓ) → the
/// leader votes/averages.  A classify/regress batch is run_knn_batch's
/// batch run (driver.hpp) with that payload gather as each query's
/// epilogue: same keys, same Algorithm 2 traffic, plus k − 1 messages per
/// query.
///
/// This header is the scored-batch stage only.  Callers hold a KnnService
/// (core/knn_service.hpp: `classify` / `regress` and their batches), or
/// compose the public stages themselves: any scoring stage
/// (score_vector_shard(s), score_vector_shards_batch over
/// make_shard_indexes, score_serve_snapshots_batch) feeds
/// classify/regress_scored_batch with id → payload tables.
///
/// Privacy note for the hospitals example: only distances, ids, and the
/// winners' labels ever cross the network — never the feature vectors.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/dist_knn.hpp"
#include "core/driver.hpp"
#include "data/point.hpp"
#include "sim/engine.hpp"

namespace dknn {

/// How the leader combines the ℓ winners' labels.
enum class VoteRule : std::uint8_t {
  Majority,         ///< one neighbor, one vote (the paper's §1 description)
  InverseDistance,  ///< weight 1/(distance + ε) — the classic refinement;
                    ///< requires encode_distance-encoded ranks, which
                    ///< every scoring stage produces
};

struct ClassifyResult {
  std::uint32_t label = 0;       ///< winning label (ties → smallest label)
  std::vector<std::pair<Key, std::uint32_t>> votes;  ///< the ℓ (key, label) pairs
  GlobalRunResult run;           ///< cost report + selected keys
};

struct RegressResult {
  double prediction = 0.0;       ///< mean target of the ℓ-NN
  std::vector<std::pair<Key, double>> contributions;
  GlobalRunResult run;
};

/// Pre-scored batched classification.  `scored_batch[q][m]` is machine m's
/// keys for query q (from any scoring stage) and `labels[m]` maps point
/// id → label on machine m (entries for dead or never-selected ids are
/// fine; only winners need one — a winner without one raises
/// PreconditionError).  One engine run drives every query; the whole-batch
/// report rides on result 0's `run.report` (later results carry empty
/// reports — the engine ran once, not B times).  With the SquaredEuclidean
/// default, VoteRule::InverseDistance weights by 1/(‖·‖₂² + ε) — still
/// monotone in distance.
[[nodiscard]] std::vector<ClassifyResult> classify_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::unordered_map<PointId, std::uint32_t>>& labels, std::uint64_t ell,
    const EngineConfig& engine_config, const KnnConfig& knn_config = {},
    VoteRule rule = VoteRule::Majority);

/// Shared-ownership payload-table overloads, for snapshot-reading callers
/// (the lock-free KnnService read path keeps copy-on-write per-machine
/// maps alive via shared_ptr and must classify against the *snapshot's*
/// tables, not the live ones a concurrent insert may be replacing).
/// classify_scored_batch here is byte-identical to the by-value-table one
/// over equal tables; regress_scored_batch is classify's twin with
/// `targets[m]` mapping point id → target.  Every `labels[m]` /
/// `targets[m]` must be non-null.
[[nodiscard]] std::vector<ClassifyResult> classify_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::shared_ptr<const std::unordered_map<PointId, std::uint32_t>>>& labels,
    std::uint64_t ell, const EngineConfig& engine_config, const KnnConfig& knn_config = {},
    VoteRule rule = VoteRule::Majority);
[[nodiscard]] std::vector<RegressResult> regress_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::shared_ptr<const std::unordered_map<PointId, double>>>& targets,
    std::uint64_t ell, const EngineConfig& engine_config, const KnnConfig& knn_config = {});

}  // namespace dknn
