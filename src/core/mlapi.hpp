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
/// Privacy note for the hospitals example: only distances, ids, and the
/// winners' labels ever cross the network — never the feature vectors.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/dist_knn.hpp"
#include "core/driver.hpp"
#include "data/point.hpp"
#include "sim/engine.hpp"

namespace dknn {

/// One machine's labeled input: scored keys plus id → label.
struct LabeledKeyShard {
  std::vector<Key> scored;
  std::unordered_map<PointId, std::uint32_t> labels;
};

/// One machine's regression input: scored keys plus id → target.
struct TargetKeyShard {
  std::vector<Key> scored;
  std::unordered_map<PointId, double> targets;
};

/// How the leader combines the ℓ winners' labels.
enum class VoteRule : std::uint8_t {
  Majority,         ///< one neighbor, one vote (the paper's §1 description)
  InverseDistance,  ///< weight 1/(distance + ε) — the classic refinement;
                    ///< requires encode_distance-encoded ranks (i.e. shards
                    ///< built by make_labeled_key_shards)
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

/// Distributed ℓ-NN classification over pre-scored labeled shards.
[[nodiscard]] ClassifyResult classify_distributed(const std::vector<LabeledKeyShard>& shards,
                                                  std::uint64_t ell,
                                                  const EngineConfig& engine_config,
                                                  const KnnConfig& knn_config = {},
                                                  VoteRule rule = VoteRule::Majority);

/// Distributed ℓ-NN regression over pre-scored target shards.
[[nodiscard]] RegressResult regress_distributed(const std::vector<TargetKeyShard>& shards,
                                                std::uint64_t ell,
                                                const EngineConfig& engine_config,
                                                const KnnConfig& knn_config = {});

/// Pre-scored batched classification — the layer every batched classify
/// entry bottoms out in.  `scored_batch[q][m]` is machine m's keys for
/// query q (from any scoring path: resident ShardIndexes, serve snapshots,
/// or the KnnService facade) and `labels[m]` maps point id → label on
/// machine m (entries for dead or never-selected ids are fine; only
/// winners need one).  One engine run drives every query; the whole-batch
/// report rides on result 0's `run.report` as in classify_batch.
[[nodiscard]] std::vector<ClassifyResult> classify_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::unordered_map<PointId, std::uint32_t>>& labels, std::uint64_t ell,
    const EngineConfig& engine_config, const KnnConfig& knn_config = {},
    VoteRule rule = VoteRule::Majority);

/// Pre-scored batched regression; `targets[m]` maps point id → target.
[[nodiscard]] std::vector<RegressResult> regress_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::unordered_map<PointId, double>>& targets, std::uint64_t ell,
    const EngineConfig& engine_config, const KnnConfig& knn_config = {});

/// Shared-ownership payload-table overloads, for snapshot-reading callers
/// (the lock-free KnnService read path keeps copy-on-write per-machine
/// maps alive via shared_ptr and must classify against the *snapshot's*
/// tables, not the live ones a concurrent insert may be replacing).
/// Byte-identical to the by-value-table overloads over equal tables; every
/// `labels[m]` / `targets[m]` must be non-null.
[[nodiscard]] std::vector<ClassifyResult> classify_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::shared_ptr<const std::unordered_map<PointId, std::uint32_t>>>& labels,
    std::uint64_t ell, const EngineConfig& engine_config, const KnnConfig& knn_config = {},
    VoteRule rule = VoteRule::Majority);
[[nodiscard]] std::vector<RegressResult> regress_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::shared_ptr<const std::unordered_map<PointId, double>>>& targets,
    std::uint64_t ell, const EngineConfig& engine_config, const KnnConfig& knn_config = {});

/// Batched classification: scores the whole query block against SoA
/// mirrors of the shards with the fused kernels (data/kernels.hpp) and
/// drives every query through one engine run, so shard conversion, label
/// tables and engine setup all amortize across the batch.  Since the
/// KnnService facade (core/knn_service.hpp) this is a thin composition
/// of the same stages the facade runs (index build → batched scoring →
/// classify_scored_batch; byte equality against
/// KnnService::classify_batch is asserted in tests/test_service.cpp) —
/// hold a KnnService yourself to keep the dataset resident and amortize
/// the index build across batches.
/// Result q equals classify_distributed on shards scored for
/// queries[q] under `kind`; the whole-batch engine report rides on result
/// 0's `run.report` (later results carry empty reports — the engine ran
/// once, not B times).
/// Note: with the SquaredEuclidean default, VoteRule::InverseDistance
/// weights by 1/(‖·‖₂² + ε) — still monotone in distance.
/// `policy` selects each shard's local-scoring structure (brute scan /
/// kd-tree hybrid / auto heuristic) and `scoring` the thread count and
/// tiling of the scoring step — neither changes any result byte
/// (cross-path parity is fuzzed in tests/test_parity.cpp).
[[nodiscard]] std::vector<ClassifyResult> classify_batch(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<std::uint32_t>>& labels,
    std::span<const PointD> queries, std::uint64_t ell, const EngineConfig& engine_config,
    const KnnConfig& knn_config = {}, VoteRule rule = VoteRule::Majority,
    MetricKind kind = MetricKind::SquaredEuclidean,
    ScoringPolicy policy = ScoringPolicy::Brute, const BatchScoringConfig& scoring = {});

/// Batched regression; result q equals regress_distributed on shards
/// scored for queries[q] under `kind`.  `policy` / `scoring` as in
/// classify_batch.
[[nodiscard]] std::vector<RegressResult> regress_batch(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<double>>& targets,
    std::span<const PointD> queries, std::uint64_t ell, const EngineConfig& engine_config,
    const KnnConfig& knn_config = {}, MetricKind kind = MetricKind::SquaredEuclidean,
    ScoringPolicy policy = ScoringPolicy::Brute, const BatchScoringConfig& scoring = {});

/// Serve-aware batched classification: machine m's labeled training data
/// is the *live* set behind `snapshots[m]` (a SegmentStore frozen view),
/// with `labels[m]` mapping point id → label — the id-keyed shape because
/// a live store's membership churns while positional label arrays cannot.
/// Labels may cover dead ids; only winners need an entry.  Result q equals
/// classify_distributed over shards holding exactly each machine's live
/// points (tested in tests/test_serve.cpp).
[[nodiscard]] std::vector<ClassifyResult> classify_serve_batch(
    std::span<const SnapshotPtr> snapshots,
    const std::vector<std::unordered_map<PointId, std::uint32_t>>& labels,
    std::span<const PointD> queries, std::uint64_t ell, const EngineConfig& engine_config,
    const KnnConfig& knn_config = {}, VoteRule rule = VoteRule::Majority,
    MetricKind kind = MetricKind::SquaredEuclidean, const BatchScoringConfig& scoring = {});

/// Serve-aware batched regression; `targets[m]` maps point id → target.
[[nodiscard]] std::vector<RegressResult> regress_serve_batch(
    std::span<const SnapshotPtr> snapshots,
    const std::vector<std::unordered_map<PointId, double>>& targets,
    std::span<const PointD> queries, std::uint64_t ell, const EngineConfig& engine_config,
    const KnnConfig& knn_config = {}, MetricKind kind = MetricKind::SquaredEuclidean,
    const BatchScoringConfig& scoring = {});

/// Convenience: score labeled vector shards against a query under a metric.
template <MetricFor M>
[[nodiscard]] std::vector<LabeledKeyShard> make_labeled_key_shards(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<std::uint32_t>>& labels,
    const PointD& query, const M& metric) {
  DKNN_REQUIRE(shards.size() == labels.size(), "shards/labels must align");
  std::vector<LabeledKeyShard> out(shards.size());
  for (std::size_t m = 0; m < shards.size(); ++m) {
    DKNN_REQUIRE(shards[m].points.size() == labels[m].size(), "points/labels must align");
    out[m].scored = score_vector_shard(shards[m], query, metric);
    for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
      out[m].labels.emplace(shards[m].ids[i], labels[m][i]);
    }
  }
  return out;
}

/// Convenience: score target vector shards against a query under a metric.
template <MetricFor M>
[[nodiscard]] std::vector<TargetKeyShard> make_target_key_shards(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<double>>& targets,
    const PointD& query, const M& metric) {
  DKNN_REQUIRE(shards.size() == targets.size(), "shards/targets must align");
  std::vector<TargetKeyShard> out(shards.size());
  for (std::size_t m = 0; m < shards.size(); ++m) {
    DKNN_REQUIRE(shards[m].points.size() == targets[m].size(), "points/targets must align");
    out[m].scored = score_vector_shard(shards[m], query, metric);
    for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
      out[m].targets.emplace(shards[m].ids[i], targets[m][i]);
    }
  }
  return out;
}

/// Default scoring: SquaredEuclidean — same selected neighbors as
/// Euclidean (ordering-equivalent), no sqrt per point.
[[nodiscard]] inline std::vector<LabeledKeyShard> make_labeled_key_shards(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<std::uint32_t>>& labels,
    const PointD& query) {
  return make_labeled_key_shards(shards, labels, query, SquaredEuclidean{});
}
[[nodiscard]] inline std::vector<TargetKeyShard> make_target_key_shards(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<double>>& targets,
    const PointD& query) {
  return make_target_key_shards(shards, targets, query, SquaredEuclidean{});
}

}  // namespace dknn
