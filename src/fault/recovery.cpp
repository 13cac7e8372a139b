#include "fault/recovery.hpp"

#include <algorithm>
#include <functional>

#include "core/batch_runner.hpp"
#include "fault/health.hpp"
#include "support/panic.hpp"

namespace dknn {

ReplicaMirror::ReplicaMirror(std::size_t machines) : shards_(machines) {
  DKNN_REQUIRE(machines >= 1, "ReplicaMirror needs at least one machine");
}

void ReplicaMirror::record(std::size_t machine, ReplicaRecord record) {
  DKNN_REQUIRE(machine < shards_.size(), "ReplicaMirror: bad machine id");
  const PointId id = record.id;
  if (auto it = owner_.find(id); it != owner_.end() && it->second != machine) {
    shards_[it->second].erase(id);
  }
  owner_[id] = machine;
  shards_[machine][id] = std::move(record);
}

bool ReplicaMirror::erase(PointId id) {
  auto it = owner_.find(id);
  if (it == owner_.end()) return false;
  shards_[it->second].erase(id);
  owner_.erase(it);
  return true;
}

std::optional<std::size_t> ReplicaMirror::machine_of(PointId id) const {
  auto it = owner_.find(id);
  if (it == owner_.end()) return std::nullopt;
  return it->second;
}

std::size_t ReplicaMirror::points_on(std::size_t machine) const {
  DKNN_REQUIRE(machine < shards_.size(), "ReplicaMirror: bad machine id");
  return shards_[machine].size();
}

std::vector<PointId> ReplicaMirror::ids_on(std::size_t machine) const {
  DKNN_REQUIRE(machine < shards_.size(), "ReplicaMirror: bad machine id");
  std::vector<PointId> out;
  out.reserve(shards_[machine].size());
  for (const auto& [id, record] : shards_[machine]) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PointId> ReplicaMirror::ids() const {
  std::vector<PointId> out;
  out.reserve(owner_.size());
  for (const auto& [id, machine] : owner_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ReplicaRecord> ReplicaMirror::recover(std::size_t machine) {
  DKNN_REQUIRE(machine < shards_.size(), "ReplicaMirror: bad machine id");
  std::vector<ReplicaRecord> out;
  out.reserve(shards_[machine].size());
  for (auto& [id, record] : shards_[machine]) out.push_back(std::move(record));
  for (const ReplicaRecord& record : out) owner_.erase(record.id);
  shards_[machine].clear();
  std::sort(out.begin(), out.end(),
            [](const ReplicaRecord& a, const ReplicaRecord& b) { return a.id < b.id; });
  return out;
}

ElectionRun elect_coordinator(const std::vector<std::uint32_t>& alive, ElectionKind kind,
                              std::uint64_t seed) {
  if (alive.empty()) {
    throw NoLiveMachinesError("dknn: elect_coordinator: no live machines left");
  }
  EngineConfig config;
  config.seed = seed;
  config.measure_compute = false;
  const auto elect = [min_id = kind == ElectionKind::MinId](Ctx& ctx) {
    return detail::elect_leader(ctx, min_id);
  };
  const detail::BatchRun run =
      detail::run_batch(static_cast<std::uint32_t>(alive.size()), /*queries=*/0, /*leader=*/0,
                        config, {.prologue = std::ref(elect)});
  // Engine ids are positions in the ascending survivor list; translate the
  // agreed leader back to its service machine id.
  return {alive[run.leader], run.attempts, run.result.report.rounds,
          run.result.report.traffic.messages_sent()};
}

}  // namespace dknn
