#include "core/mlapi.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <string>
#include <type_traits>

#include "core/batch_runner.hpp"
#include "core/protocol.hpp"
#include "data/validate.hpp"
#include "sim/collectives.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

using KeyedPayload = std::pair<Key, std::uint64_t>;
using ScoredBatch = std::vector<std::vector<std::vector<Key>>>;

/// The epilogue of a classify/regress query: this machine's winners, each
/// annotated with its 64-bit payload word (label or bit-cast target), go to
/// the leader (one message per non-leader machine; the winners number ℓ in
/// total, so the volume is O(ℓ log n) bits), which keeps them sorted in
/// `winners`.
Task<void> gather_payloads(Ctx& ctx, std::vector<KeyedPayload> mine, MachineId leader,
                           std::vector<KeyedPayload>* winners) {
  auto gathered =
      co_await gather<std::vector<KeyedPayload>>(ctx, leader, tags::kMlPayload, mine);
  if (ctx.id() != leader) co_return;
  for (auto& part : gathered) winners->insert(winners->end(), part.begin(), part.end());
  std::sort(winners->begin(), winners->end());
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
        // Every scoring stage encodes ranks with encode_distance.
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

/// The one body behind every classify/regress entry: pre-scored
/// [query][machine] keys, `tables` payload tables with `table(m)` pointing
/// at machine m's id → label or target map, one batch run of Algorithm 2
/// with the payload gather as its epilogue, and `finish` voting or
/// averaging at the leader.  Looking payloads up in the caller's tables
/// (instead of materialized copies) lets the facade serve them straight
/// from its snapshot.  The whole-batch report rides on result 0.
template <typename Table, typename Finish>
std::vector<typename Finish::Result> ml_scored_batch(const ScoredBatch& scored_batch,
                                                     std::size_t tables, const Table& table,
                                                     std::uint64_t ell,
                                                     const EngineConfig& engine_config,
                                                     const KnnConfig& knn_config,
                                                     const Finish& finish) {
  const std::size_t world = detail::batch_world(scored_batch);
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
  std::vector<std::vector<KeyedPayload>> winners(scored_batch.size());  // at the leader
  const auto step = [&](Ctx& ctx, std::size_t q, MachineId leader, detail::QuerySlot& slot) {
    return detail::knn_step(ctx, scored_batch[q][ctx.id()], ell, KnnAlgo::DistKnn, knn_config,
                            leader, slot);
  };
  const auto epilogue = [&](Ctx& ctx, std::size_t q, MachineId leader,
                            const detail::QuerySlot& slot) {
    std::vector<KeyedPayload> mine;
    mine.reserve(slot.selected.size());
    for (const Key& key : slot.selected) mine.emplace_back(key, lookup(ctx.id(), key.id));
    return gather_payloads(ctx, std::move(mine), leader, &winners[q]);
  };
  detail::BatchRun run =
      detail::run_batch(static_cast<std::uint32_t>(world), scored_batch.size(), knn_config.leader,
                        engine_config, {.step = std::ref(step), .epilogue = std::ref(epilogue)});

  std::vector<typename Finish::Result> results(scored_batch.size());
  for (std::size_t q = 0; q < scored_batch.size(); ++q) {
    results[q].run = std::move(run.result.per_query[q]);
    results[q].run.report = q == 0 ? std::move(run.result.report) : RunReport{};
    finish(results[q], winners[q]);
  }
  return results;
}

}  // namespace

std::vector<ClassifyResult> classify_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::unordered_map<PointId, std::uint32_t>>& labels, std::uint64_t ell,
    const EngineConfig& engine_config, const KnnConfig& knn_config, VoteRule rule) {
  return ml_scored_batch(
      scored_batch, labels.size(), [&labels](std::size_t m) { return &labels[m]; }, ell,
      engine_config, knn_config, Vote{rule});
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

}  // namespace dknn
