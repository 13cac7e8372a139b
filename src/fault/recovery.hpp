#pragma once
/// \file recovery.hpp
/// \brief Recovery after machine failure: the replica mirror a service
///        re-shards a dead machine's points from, and the survivor
///        election that picks the re-shard coordinator.
///
/// The k-machine model owns each point exactly once, so a dead machine's
/// shard is gone from the serving path the moment detection fires.  The
/// fault-tolerant KnnService therefore keeps a `ReplicaMirror` — a cheap
/// (point, id, payload) copy of every machine's membership, maintained on
/// build / insert / erase — standing in for what a production deployment
/// would read from a replica or a write-ahead log.  Recovery then is:
///
///   1. survivors run a leader election (`election/` — min-id or the
///      paper-adjacent sublinear protocol) to pick the coordinator;
///   2. the dead machine's mirror records re-insert onto the survivors
///      through the live SegmentStore path, round-robin starting at the
///      coordinator, ascending by id (deterministic);
///   3. the dead machine retires: its slot leaves `Coverage::total` and
///      its mirror slot clears.
///
/// After step 3 the service is byte-exact again: the global top-ℓ over
/// distinct (distance, id) keys does not depend on which machine holds
/// which point, so answers equal a never-failed service's (pinned by the
/// chaos fuzz in tests/test_chaos.cpp).  Erases issued while the owner
/// was dead apply to the mirror immediately — recovery re-inserts only
/// what is still a member, so deletes never resurrect.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/point.hpp"
#include "net/types.hpp"

namespace dknn {

/// One mirrored point: everything needed to re-insert it elsewhere.
struct ReplicaRecord {
  PointD point;
  PointId id = 0;
  std::optional<std::uint32_t> label;
  std::optional<double> target;
};

/// The in-process recovery source: an id-keyed mirror of every machine's
/// membership.  Not thread-safe on its own — the owning service guards it
/// with its service mutex.
class ReplicaMirror {
 public:
  explicit ReplicaMirror(std::size_t machines);

  [[nodiscard]] std::size_t machines() const { return shards_.size(); }

  /// Upserts `record` as machine `machine`'s copy of its id.
  void record(std::size_t machine, ReplicaRecord record);

  /// Drops `id` from whichever machine mirrors it; false when unknown.
  bool erase(PointId id);

  [[nodiscard]] bool contains(PointId id) const { return owner_.count(id) != 0; }
  /// The machine mirroring `id`, if any.
  [[nodiscard]] std::optional<std::size_t> machine_of(PointId id) const;
  [[nodiscard]] std::size_t points_on(std::size_t machine) const;
  [[nodiscard]] std::size_t total_points() const { return owner_.size(); }

  /// Member ids of one machine, ascending.
  [[nodiscard]] std::vector<PointId> ids_on(std::size_t machine) const;
  /// All member ids across machines, ascending.
  [[nodiscard]] std::vector<PointId> ids() const;

  /// Consumes machine `machine`'s records (ascending by id; empty when
  /// nothing is recoverable) and clears its slot — the recovery read.
  /// Ownership of the records moves to the caller.
  [[nodiscard]] std::vector<ReplicaRecord> recover(std::size_t machine);

 private:
  std::vector<std::unordered_map<PointId, ReplicaRecord>> shards_;
  std::unordered_map<PointId, std::size_t> owner_;
};

/// Which election protocol survivors run to pick the re-shard coordinator.
enum class ElectionKind : std::uint8_t {
  /// One all-to-all exchange of k(k−1) messages, which the engine reports
  /// as 2 rounds (sent in one superstep, read in the next); deterministic
  /// winner.
  MinId,
  Sublinear,  ///< the Õ(√k)-message randomized protocol
};

/// Outcome of one survivor election.
struct ElectionRun {
  MachineId coordinator = 0;         ///< *service* machine id of the winner
  std::uint32_t attempts = 1;        ///< protocol attempts (sublinear retries)
  std::uint64_t rounds = 0;          ///< engine rounds the election took
  std::uint64_t messages = 0;        ///< messages the election sent
};

/// Runs `kind` alone over the survivor set, as the election prologue of a
/// zero-query batch run (core/batch_runner.hpp; world size = survivors,
/// engine ids map to `alive` ascending), and translates the winner back to
/// a service machine id.  Deterministic per (alive, kind, seed).  Throws
/// NoLiveMachinesError when `alive` is empty.
[[nodiscard]] ElectionRun elect_coordinator(const std::vector<std::uint32_t>& alive,
                                            ElectionKind kind, std::uint64_t seed);

/// What one machine's recovery did.
struct RecoveryReport {
  std::size_t machine = 0;         ///< the machine that was recovered
  ElectionRun election;            ///< the survivor election that led it
  std::size_t points_recovered = 0;  ///< mirror records re-inserted
};

}  // namespace dknn
