#include "core/session.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace dknn {
namespace detail {

SessionResult assemble_session(std::vector<SessionSlot> slots, RunReport report,
                               std::size_t num_queries) {
  SessionResult result;
  result.report = std::move(report);
  result.leader = slots[0].leader;
  for (const auto& slot : slots) {
    DKNN_ASSERT(slot.leader == result.leader, "machines disagree on the leader");
  }
  result.election_rounds = slots[result.leader].election_rounds;
  result.queries.resize(num_queries);
  // Query q's rounds are F(q) − F(q − 1), where F(q) is the latest round
  // any machine finished q and F(−1) the election's last round (the
  // program starts at round 0, so that is the largest election count).
  std::uint64_t previous = 0;
  for (const auto& slot : slots) previous = std::max(previous, slot.election_rounds);
  for (std::size_t q = 0; q < num_queries; ++q) {
    auto& out = result.queries[q];
    out.index = q;
    std::uint64_t finished = 0;
    for (const auto& slot : slots) {
      out.keys.insert(out.keys.end(), slot.selected[q].begin(), slot.selected[q].end());
      finished = std::max(finished, slot.finished[q]);
    }
    std::sort(out.keys.begin(), out.keys.end());
    const auto& lead = slots[result.leader];
    out.rounds = finished - previous;
    previous = finished;
    out.attempts = lead.attempts[q];
    out.candidates = lead.candidates[q];
  }
  return result;
}

}  // namespace detail

SessionResult run_scalar_session(const std::vector<ScalarShard>& shards,
                                 std::span<const Value> queries, std::uint64_t ell,
                                 const EngineConfig& engine_config,
                                 const SessionConfig& session_config) {
  DKNN_REQUIRE(!shards.empty(), "need at least one shard");
  auto scorer = [&shards, queries](MachineId machine, std::size_t qi) {
    return score_scalar_shard(shards[machine], queries[qi]);
  };
  SessionResult result =
      detail::run_session(static_cast<std::uint32_t>(shards.size()), scorer, queries.size(),
                          ell, engine_config, session_config);
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
  auto scorer = [&indexes, &scratch, queries, ell](MachineId machine, std::size_t qi) {
    std::vector<std::vector<Key>> out;
    shard_top_ell_batch(indexes[machine], nullptr, queries.subspan(qi, 1),
                        static_cast<std::size_t>(ell), MetricKind::Euclidean,
                        /*approx=*/false, out, scratch[machine]);
    return std::move(out[0]);
  };
  return detail::run_session(static_cast<std::uint32_t>(indexes.size()), scorer, queries.size(),
                             ell, engine_config, session_config);
}

}  // namespace dknn
