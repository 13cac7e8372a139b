#include "core/mlapi.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <type_traits>

#include "core/protocol.hpp"
#include "data/validate.hpp"
#include "sim/collectives.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

/// Generic payload collector: after dist_knn, each machine annotates its
/// winning keys with a 64-bit payload word (label or bit-cast target) and
/// ships them to the leader; the leader ends up with exactly the global
/// winners' payloads.
struct MlSlot {
  std::vector<Key> selected;
  std::uint32_t iterations = 0;
  std::uint32_t attempts = 1;
  std::uint64_t candidates = 0;
  bool prune_ok = true;
  std::vector<std::pair<Key, std::uint64_t>> winners;  ///< leader only
};

using KeyedPayload = std::pair<Key, std::uint64_t>;
using ScoredBatch = std::vector<std::vector<std::vector<Key>>>;

/// Every query of the block runs its select-and-gather back to back inside
/// one engine (see session.hpp's pipelining note for why instances don't
/// mix).
template <typename Lookup>
Task<void> ml_batch_program(Ctx& ctx, const ScoredBatch* batch, std::uint64_t ell,
                            KnnConfig knn_config, Lookup lookup,
                            std::vector<std::vector<MlSlot>>* slots) {
  for (std::size_t q = 0; q < batch->size(); ++q) {
    MlSlot& slot = (*slots)[q][ctx.id()];
    KnnLocal local = co_await dist_knn(ctx, (*batch)[q][ctx.id()], ell, knn_config);
    slot.selected = local.selected;
    slot.iterations = local.select_iterations;
    slot.attempts = local.attempts;
    slot.candidates = local.candidates;
    slot.prune_ok = local.prune_ok;

    std::vector<KeyedPayload> mine;
    mine.reserve(local.selected.size());
    for (const Key& key : local.selected) mine.emplace_back(key, lookup(ctx.id(), key.id));

    // Gather winners at the leader (one message per non-leader machine; the
    // winners number ℓ in total so the volume is O(ℓ log n) bits).
    auto gathered = co_await gather<std::vector<KeyedPayload>>(ctx, knn_config.leader,
                                                               tags::kMlPayload, mine);
    if (ctx.id() == knn_config.leader) {
      std::vector<KeyedPayload> winners;
      for (auto& part : gathered) winners.insert(winners.end(), part.begin(), part.end());
      std::sort(winners.begin(), winners.end());
      slot.winners = std::move(winners);
    }
  }
}

/// Leader-side vote: fills result.votes and result.label from the winners.
struct Vote {
  using Result = ClassifyResult;
  VoteRule rule = VoteRule::Majority;

  void operator()(ClassifyResult& result, const std::vector<KeyedPayload>& winners) const {
    // Weighted vote; ties resolved toward the smallest label (deterministic).
    std::map<std::uint32_t, double> tally;
    for (const auto& [key, payload] : winners) {
      const auto label = static_cast<std::uint32_t>(payload);
      result.votes.emplace_back(key, label);
      double weight = 1.0;
      if (rule == VoteRule::InverseDistance) {
        // Ranks from make_labeled_key_shards are encode_distance-encoded.
        weight = 1.0 / (decode_distance(key.rank) + 1e-9);
      }
      tally[label] += weight;
    }
    DKNN_REQUIRE(!result.votes.empty(), "classification needs at least one neighbor (ell >= 1)");
    double best_weight = -1.0;
    for (const auto& [label, weight] : tally) {
      if (weight > best_weight) {  // map iterates ascending: first max wins ties
        best_weight = weight;
        result.label = label;
      }
    }
  }
};

/// Leader-side average: fills result.contributions and result.prediction.
struct Mean {
  using Result = RegressResult;

  void operator()(RegressResult& result, const std::vector<KeyedPayload>& winners) const {
    DKNN_REQUIRE(!winners.empty(), "regression needs at least one neighbor (ell >= 1)");
    double sum = 0.0;
    for (const auto& [key, payload] : winners) {
      const double y = std::bit_cast<double>(payload);
      result.contributions.emplace_back(key, y);
      sum += y;
    }
    result.prediction = sum / static_cast<double>(result.contributions.size());
  }
};

GlobalRunResult make_run_result(std::vector<MlSlot>& slots, RunReport report, MachineId leader) {
  GlobalRunResult run;
  run.report = std::move(report);
  for (auto& slot : slots) run.keys.insert(run.keys.end(), slot.selected.begin(), slot.selected.end());
  std::sort(run.keys.begin(), run.keys.end());
  run.iterations = slots[leader].iterations;
  run.attempts = slots[leader].attempts;
  run.candidates = slots[leader].candidates;
  run.prune_ok = slots[leader].prune_ok;
  return run;
}

/// The one body behind every classify/regress entry: pre-scored
/// [query][machine] keys, `tables` payload tables with `table(m)` pointing
/// at machine m's id → label or target map, one engine run over all
/// queries, and `finish` voting or averaging at the leader.  Looking
/// payloads up in the caller's tables (instead of materialized copies)
/// lets the facade serve them straight from its snapshot.  The whole-batch
/// report rides on result 0.
template <typename Table, typename Finish>
std::vector<typename Finish::Result> ml_scored_batch(const ScoredBatch& scored_batch,
                                                     std::size_t tables, const Table& table,
                                                     std::uint64_t ell,
                                                     const EngineConfig& engine_config,
                                                     const KnnConfig& knn_config,
                                                     const Finish& finish) {
  DKNN_REQUIRE(!scored_batch.empty(), "need at least one query");
  const std::size_t world = scored_batch.front().size();
  DKNN_REQUIRE(world > 0, "need at least one machine");
  DKNN_REQUIRE(tables == world, "scored/payload tables must align");
  for (std::size_t m = 0; m < world; ++m) DKNN_REQUIRE(table(m) != nullptr, "null payload table");

  // A winner without a payload is a caller-input failure (an unlabeled
  // point won the vote), so it carries a typed error like every other
  // precondition — the engine rethrows it intact.
  auto lookup = [&table](MachineId machine, PointId id) -> std::uint64_t {
    const auto& payloads = *table(machine);
    constexpr bool kTarget =
        std::is_same_v<typename std::remove_cvref_t<decltype(payloads)>::mapped_type, double>;
    const auto it = payloads.find(id);
    if (it == payloads.end()) {
      throw PreconditionError("dknn: winner id " + std::to_string(id) + " has no " +
                              (kTarget ? "target" : "label") + " on its machine");
    }
    if constexpr (kTarget) {
      return std::bit_cast<std::uint64_t>(it->second);
    } else {
      return it->second;
    }
  };
  EngineConfig config = engine_config;
  config.world_size = static_cast<std::uint32_t>(world);
  Engine engine(config);
  std::vector<std::vector<MlSlot>> slots(scored_batch.size(), std::vector<MlSlot>(world));
  RunReport report = engine.run([&](Ctx& ctx) {
    return ml_batch_program(ctx, &scored_batch, ell, knn_config, lookup, &slots);
  });

  std::vector<typename Finish::Result> results(scored_batch.size());
  for (std::size_t q = 0; q < scored_batch.size(); ++q) {
    results[q].run = make_run_result(slots[q], q == 0 ? std::move(report) : RunReport{},
                                     knn_config.leader);
    finish(results[q], slots[q][knn_config.leader].winners);
  }
  return results;
}

/// The *_distributed entries' one query as a scored batch.
template <typename Shard>
ScoredBatch one_query_batch(const std::vector<Shard>& shards) {
  DKNN_REQUIRE(!shards.empty(), "need at least one shard");
  ScoredBatch batch(1);
  batch[0].reserve(shards.size());
  for (const auto& shard : shards) batch[0].push_back(shard.scored);
  return batch;
}

}  // namespace

ClassifyResult classify_distributed(const std::vector<LabeledKeyShard>& shards, std::uint64_t ell,
                                    const EngineConfig& engine_config,
                                    const KnnConfig& knn_config, VoteRule rule) {
  auto results = ml_scored_batch(
      one_query_batch(shards), shards.size(),
      [&shards](std::size_t m) { return &shards[m].labels; }, ell, engine_config, knn_config,
      Vote{rule});
  return std::move(results.front());
}

RegressResult regress_distributed(const std::vector<TargetKeyShard>& shards, std::uint64_t ell,
                                  const EngineConfig& engine_config, const KnnConfig& knn_config) {
  auto results = ml_scored_batch(
      one_query_batch(shards), shards.size(),
      [&shards](std::size_t m) { return &shards[m].targets; }, ell, engine_config, knn_config,
      Mean{});
  return std::move(results.front());
}

std::vector<ClassifyResult> classify_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::unordered_map<PointId, std::uint32_t>>& labels, std::uint64_t ell,
    const EngineConfig& engine_config, const KnnConfig& knn_config, VoteRule rule) {
  return ml_scored_batch(
      scored_batch, labels.size(), [&labels](std::size_t m) { return &labels[m]; }, ell,
      engine_config, knn_config, Vote{rule});
}

std::vector<RegressResult> regress_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::unordered_map<PointId, double>>& targets, std::uint64_t ell,
    const EngineConfig& engine_config, const KnnConfig& knn_config) {
  return ml_scored_batch(
      scored_batch, targets.size(), [&targets](std::size_t m) { return &targets[m]; }, ell,
      engine_config, knn_config, Mean{});
}

std::vector<ClassifyResult> classify_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::shared_ptr<const std::unordered_map<PointId, std::uint32_t>>>& labels,
    std::uint64_t ell, const EngineConfig& engine_config, const KnnConfig& knn_config,
    VoteRule rule) {
  return ml_scored_batch(
      scored_batch, labels.size(), [&labels](std::size_t m) { return labels[m].get(); }, ell,
      engine_config, knn_config, Vote{rule});
}

std::vector<RegressResult> regress_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::shared_ptr<const std::unordered_map<PointId, double>>>& targets,
    std::uint64_t ell, const EngineConfig& engine_config, const KnnConfig& knn_config) {
  return ml_scored_batch(
      scored_batch, targets.size(), [&targets](std::size_t m) { return targets[m].get(); },
      ell, engine_config, knn_config, Mean{});
}

// The batched dataset-level entries compose the decomposed stages
// directly: make_shard_indexes → score_vector_shards_batch →
// classify/regress_scored_batch.  KnnService::classify_batch/regress_batch
// score the same shards sealed into its stores instead (byte equality
// against the facade is asserted in tests/test_service.cpp); composing here
// lets a one-shot call borrow the caller's shards instead of copying them
// into a throwaway service.  Resident callers should hold a KnnService and
// amortize the index build across batches.

std::vector<ClassifyResult> classify_batch(const std::vector<VectorShard>& shards,
                                           const std::vector<std::vector<std::uint32_t>>& labels,
                                           std::span<const PointD> queries, std::uint64_t ell,
                                           const EngineConfig& engine_config,
                                           const KnnConfig& knn_config, VoteRule rule,
                                           MetricKind kind, ScoringPolicy policy,
                                           const BatchScoringConfig& scoring) {
  DKNN_REQUIRE(!shards.empty(), "need at least one shard");
  DKNN_REQUIRE(!queries.empty(), "need at least one query");
  DKNN_REQUIRE(shards.size() == labels.size(), "shards/labels must align");
  for (std::size_t m = 0; m < shards.size(); ++m) {
    DKNN_REQUIRE(shards[m].points.size() == labels[m].size(), "points/labels must align");
  }
  const std::vector<ShardIndex> indexes = make_shard_indexes(shards, policy);
  const auto scored = score_vector_shards_batch(indexes, queries, ell, kind, scoring);
  std::vector<std::unordered_map<PointId, std::uint32_t>> labels_by_id(shards.size());
  for (std::size_t m = 0; m < shards.size(); ++m) {
    labels_by_id[m].reserve(shards[m].ids.size());
    for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
      labels_by_id[m].emplace(shards[m].ids[i], labels[m][i]);
    }
  }
  return classify_scored_batch(scored, labels_by_id, ell, engine_config, knn_config, rule);
}

std::vector<RegressResult> regress_batch(const std::vector<VectorShard>& shards,
                                         const std::vector<std::vector<double>>& targets,
                                         std::span<const PointD> queries, std::uint64_t ell,
                                         const EngineConfig& engine_config,
                                         const KnnConfig& knn_config, MetricKind kind,
                                         ScoringPolicy policy,
                                         const BatchScoringConfig& scoring) {
  DKNN_REQUIRE(!shards.empty(), "need at least one shard");
  DKNN_REQUIRE(!queries.empty(), "need at least one query");
  DKNN_REQUIRE(shards.size() == targets.size(), "shards/targets must align");
  for (std::size_t m = 0; m < shards.size(); ++m) {
    DKNN_REQUIRE(shards[m].points.size() == targets[m].size(), "points/targets must align");
  }
  const std::vector<ShardIndex> indexes = make_shard_indexes(shards, policy);
  const auto scored = score_vector_shards_batch(indexes, queries, ell, kind, scoring);
  std::vector<std::unordered_map<PointId, double>> targets_by_id(shards.size());
  for (std::size_t m = 0; m < shards.size(); ++m) {
    targets_by_id[m].reserve(shards[m].ids.size());
    for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
      targets_by_id[m].emplace(shards[m].ids[i], targets[m][i]);
    }
  }
  return regress_scored_batch(scored, targets_by_id, ell, engine_config, knn_config);
}

// The snapshot-level serve entries stay as the escape hatch for callers
// who manage their own SegmentStores (a live KnnService owns its stores):
// thin compositions of the public scoring + scored-batch stages.

std::vector<ClassifyResult> classify_serve_batch(
    std::span<const SnapshotPtr> snapshots,
    const std::vector<std::unordered_map<PointId, std::uint32_t>>& labels,
    std::span<const PointD> queries, std::uint64_t ell, const EngineConfig& engine_config,
    const KnnConfig& knn_config, VoteRule rule, MetricKind kind,
    const BatchScoringConfig& scoring) {
  DKNN_REQUIRE(!snapshots.empty(), "need at least one machine");
  DKNN_REQUIRE(snapshots.size() == labels.size(), "snapshots/payloads must align");
  DKNN_REQUIRE(!queries.empty(), "need at least one query");
  const auto scored = score_serve_snapshots_batch(snapshots, queries, ell, kind, scoring);
  return classify_scored_batch(scored, labels, ell, engine_config, knn_config, rule);
}

std::vector<RegressResult> regress_serve_batch(
    std::span<const SnapshotPtr> snapshots,
    const std::vector<std::unordered_map<PointId, double>>& targets,
    std::span<const PointD> queries, std::uint64_t ell, const EngineConfig& engine_config,
    const KnnConfig& knn_config, MetricKind kind, const BatchScoringConfig& scoring) {
  DKNN_REQUIRE(!snapshots.empty(), "need at least one machine");
  DKNN_REQUIRE(snapshots.size() == targets.size(), "snapshots/payloads must align");
  DKNN_REQUIRE(!queries.empty(), "need at least one query");
  const auto scored = score_serve_snapshots_batch(snapshots, queries, ell, kind, scoring);
  return regress_scored_batch(scored, targets, ell, engine_config, knn_config);
}

}  // namespace dknn
