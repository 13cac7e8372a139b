// Chaos suite for the fault-tolerant KnnService: directed tests for the
// degradation/recovery state machine (coverage, caches across liveness
// flips, deletes never resurrecting, typed errors) and a seeded fuzz that
// kills up to k−1 machines mid-churn, checks every degraded answer
// byte-exact against an oracle over the surviving shards, then recovers and
// checks the service byte-identical to a never-failed reference.  Small
// workloads on purpose: the suite runs under TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/knn_service.hpp"
#include "data/metric.hpp"
#include "data/validate.hpp"
#include "fault/health.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/select.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;

constexpr MetricKind kChaosKind = MetricKind::SquaredEuclidean;

PointD random_point(std::size_t dim, Rng& rng) {
  std::vector<double> coords(dim);
  for (auto& c : coords) c = rng.uniform01() * 20.0 - 10.0;
  return PointD(std::move(coords));
}

/// Ground truth over an explicit membership set: brute-force keys through
/// the metric functors, capped to ℓ — the same oracle shape every parity
/// suite anchors on.
std::vector<Key> member_oracle(const std::unordered_map<PointId, PointD>& shadow,
                               const std::vector<PointId>& members, const PointD& query,
                               std::uint64_t ell) {
  std::vector<Key> pool;
  pool.reserve(members.size());
  for (const PointId id : members) {
    pool.push_back(Key{encode_distance(metric_distance(kChaosKind, shadow.at(id), query)), id});
  }
  return top_ell_smallest(std::span<const Key>(pool), ell);
}

/// A live service with a known dimension and no initial dataset; points are
/// inserted with caller-chosen ids so tests can keep an exact shadow copy.
KnnService make_live_service(std::uint32_t k, std::size_t dim, std::uint64_t ell,
                             bool fault_tolerant, std::size_t cache = 0) {
  KnnServiceBuilder builder;
  builder.machines(k).ell(ell).metric(kChaosKind).seed(5).dim(dim).live().cache_capacity(cache);
  if (fault_tolerant) builder.fault_tolerant();
  return builder.build();
}

// --- directed: coverage + degraded answers -----------------------------------

TEST(ChaosDirected, DegradedAnswerIsExactOverSurvivingShards) {
  const std::uint32_t k = 4;
  const std::uint64_t ell = 5;
  Rng rng(21);
  KnnService service = make_live_service(k, 2, ell, /*fault_tolerant=*/true);
  std::unordered_map<PointId, PointD> shadow;
  for (PointId id = 1; id <= 40; ++id) {
    const PointD p = random_point(2, rng);
    shadow.emplace(id, p);
    (void)service.insert(p, id);
  }

  service.kill_machine(1);
  std::vector<PointId> survivors;
  for (std::size_t m = 0; m < k; ++m) {
    if (m == 1) continue;
    const auto ids = service.live_ids_on(m);
    survivors.insert(survivors.end(), ids.begin(), ids.end());
  }

  for (int i = 0; i < 4; ++i) {
    const PointD query = random_point(2, rng);
    const QueryResult result = service.query(query);
    EXPECT_EQ(result.coverage.total, k);
    ASSERT_EQ(result.coverage.missing, (std::vector<std::uint32_t>{1}));
    expect_same_keys(member_oracle(shadow, survivors, query, ell), result.keys,
                     "degraded vs surviving-shard oracle");
  }
}

TEST(ChaosDirected, UnresponsiveMachineDetectedByQueryDeadline) {
  const std::uint32_t k = 3;
  Rng rng(22);
  KnnService service = make_live_service(k, 2, 4, /*fault_tolerant=*/true);
  for (PointId id = 1; id <= 21; ++id) (void)service.insert(random_point(2, rng), id);

  service.set_failure_mode(2, FailureMode{FailureModeKind::Unresponsive, 0});
  EXPECT_EQ(service.health().state(2), MachineState::Alive);  // not yet probed

  // The very first query's deadline/retry probes detect the failure: the
  // answer already reports the machine missing — no wrong-but-complete
  // answer is ever produced.
  const QueryResult degraded = service.query(random_point(2, rng));
  ASSERT_EQ(degraded.coverage.missing, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(service.health().state(2), MachineState::Dead);
  EXPECT_EQ(service.health().stats().deaths_detected, 1u);
}

TEST(ChaosDirected, AllMachinesDeadDegradesToEmptyNotHang) {
  Rng rng(23);
  KnnService service = make_live_service(2, 1, 3, /*fault_tolerant=*/true);
  for (PointId id = 1; id <= 8; ++id) (void)service.insert(random_point(1, rng), id);
  service.kill_machine(0);
  service.kill_machine(1);

  const QueryResult result = service.query(random_point(1, rng));
  EXPECT_TRUE(result.keys.empty());
  EXPECT_EQ(result.coverage.answered(), 0u);
  EXPECT_DOUBLE_EQ(result.coverage.fraction(), 0.0);

  // Inserting with no live machine is a typed failure, not a hang.
  EXPECT_THROW((void)service.insert(random_point(1, rng), 99), NoLiveMachinesError);
  // Recovery needs at least one survivor.
  EXPECT_THROW((void)service.recover_machine(0), NoLiveMachinesError);
}

// --- directed: caches never cross liveness flips (satellite 6) ---------------

TEST(ChaosDirected, ServiceCacheNeverCrossesLivenessFlips) {
  const std::uint64_t ell = 4;
  Rng rng(24);
  KnnService service = make_live_service(3, 2, ell, /*fault_tolerant=*/true, /*cache=*/64);
  std::unordered_map<PointId, PointD> shadow;
  for (PointId id = 1; id <= 30; ++id) {
    const PointD p = random_point(2, rng);
    shadow.emplace(id, p);
    (void)service.insert(p, id);
  }
  const PointD query = random_point(2, rng);

  const QueryResult full = service.query(query);
  EXPECT_FALSE(full.cache_hit);
  const QueryResult full_hit = service.query(query);
  EXPECT_TRUE(full_hit.cache_hit);
  expect_same_keys(full.keys, full_hit.keys, "healthy hit");

  // Down-flip: the degraded answer must be recomputed, not served from the
  // healthy-era cache.
  service.kill_machine(0);
  const QueryResult degraded = service.query(query);
  EXPECT_FALSE(degraded.cache_hit);
  ASSERT_EQ(degraded.coverage.missing, (std::vector<std::uint32_t>{0}));
  std::vector<PointId> survivors;
  for (const std::size_t m : {1, 2}) {
    const auto ids = service.live_ids_on(m);
    survivors.insert(survivors.end(), ids.begin(), ids.end());
  }
  expect_same_keys(member_oracle(shadow, survivors, query, ell), degraded.keys, "degraded");

  // Same liveness state: caching the degraded answer is sound.
  const QueryResult degraded_hit = service.query(query);
  EXPECT_TRUE(degraded_hit.cache_hit);
  expect_same_keys(degraded.keys, degraded_hit.keys, "degraded hit");
  ASSERT_EQ(degraded_hit.coverage.missing, (std::vector<std::uint32_t>{0}));

  // Up-flip: the degraded answer must never be served after recovery.
  service.revive_machine(0);
  const QueryResult recovered = service.query(query);
  EXPECT_FALSE(recovered.cache_hit);
  expect_same_keys(full.keys, recovered.keys, "recovered == original");
  EXPECT_TRUE(recovered.coverage.complete());
}

TEST(ChaosDirected, DegradedAnswerCarriesRealEpochNotZeroSentinel) {
  // Regression: a degraded single-store answer used to stamp epoch = 0,
  // which collides with a legitimate fresh-store answer.  The contract:
  // epoch always means "service state this answer is exact for" and
  // *coverage* carries the degradation signal.
  Rng rng(27);
  KnnService service = make_live_service(1, 2, 3, /*fault_tolerant=*/true);
  for (PointId id = 1; id <= 12; ++id) (void)service.insert(random_point(2, rng), id);
  const std::uint64_t epoch = service.snapshot_epoch();
  ASSERT_GT(epoch, 0u);  // inserts advanced it — 0 would be ambiguous

  service.kill_machine(0);
  const QueryResult degraded = service.query(random_point(2, rng));
  EXPECT_TRUE(degraded.keys.empty());
  EXPECT_EQ(degraded.epoch, service.snapshot_epoch());  // not the old 0 sentinel
  EXPECT_GT(degraded.epoch, 0u);
  ASSERT_EQ(degraded.coverage.missing, (std::vector<std::uint32_t>{0}));

  // Contrast case: a genuinely fresh, empty service also answers with
  // empty keys — at its own epoch, with *full* coverage.  The two
  // situations stay distinguishable by coverage alone, never by an epoch
  // sentinel.
  KnnService fresh = make_live_service(1, 2, 3, /*fault_tolerant=*/true);
  const QueryResult empty_store = fresh.query(random_point(2, rng));
  EXPECT_TRUE(empty_store.keys.empty());
  EXPECT_EQ(empty_store.epoch, fresh.snapshot_epoch());
  EXPECT_TRUE(empty_store.coverage.complete());
}

// --- directed: recovery invariants -------------------------------------------

TEST(ChaosDirected, DeletesNeverResurrectThroughRecovery) {
  Rng rng(26);
  KnnService service = make_live_service(3, 2, 4, /*fault_tolerant=*/true);
  for (PointId id = 1; id <= 18; ++id) (void)service.insert(random_point(2, rng), id);

  const std::vector<PointId> on_zero = service.live_ids_on(0);
  ASSERT_FALSE(on_zero.empty());
  const PointId victim_id = on_zero.front();

  service.kill_machine(0);
  // Erase while the owner is down: membership changes now.
  ASSERT_TRUE(service.erase(victim_id).has_value());
  EXPECT_FALSE(service.contains(victim_id));

  // Recovery re-homes machine 0's points — the erased id must not ride
  // along.
  const RecoveryReport report = service.recover_machine(0);
  EXPECT_EQ(report.machine, 0u);
  EXPECT_EQ(report.points_recovered, on_zero.size() - 1);
  EXPECT_FALSE(service.contains(victim_id));
  const auto all = service.live_ids();
  EXPECT_EQ(std::find(all.begin(), all.end(), victim_id), all.end());
  EXPECT_EQ(service.health().state(0), MachineState::Retired);
}

TEST(ChaosDirected, EraseOnDeadSurvivesRecoveryAtTheQueryLevel) {
  // The mirror-path ordering this pins: erase() applies to the replica
  // mirror *immediately* even when the owner is dead (the store-side erase
  // is deferred to pending_erases), and recover_machine() consumes the
  // mirror and clears the machine's pending_erases on a different path
  // than revive_machine() (which applies them to the store).  Those two
  // paths must agree that an id erased while its owner was down stays
  // dead: recovery re-homes the mirror's members, the pending entry is
  // dropped (the Retired machine can never revive and replay it), and a
  // query aimed exactly at the erased point — the worst case — answers
  // byte-exactly from the survivors without it.
  Rng rng(29);
  KnnService service = make_live_service(3, 2, 6, /*fault_tolerant=*/true);
  std::unordered_map<PointId, PointD> shadow;
  for (PointId id = 1; id <= 18; ++id) {
    const PointD p = random_point(2, rng);
    shadow.emplace(id, p);
    (void)service.insert(p, id);
  }
  const std::vector<PointId> on_zero = service.live_ids_on(0);
  ASSERT_FALSE(on_zero.empty());
  const PointId victim_id = on_zero.front();

  service.kill_machine(0);
  ASSERT_TRUE(service.erase(victim_id).has_value());
  const RecoveryReport report = service.recover_machine(0);
  EXPECT_EQ(report.points_recovered, on_zero.size() - 1);

  // Query at the erased point's own location: full coverage (Retired is
  // excluded silently — its data lives on survivors), and the answer is
  // byte-equal to the oracle over everyone *minus* the victim.
  const PointD query = shadow.at(victim_id);
  shadow.erase(victim_id);
  const QueryResult result = service.query(query);
  EXPECT_TRUE(result.coverage.complete());
  expect_same_keys(member_oracle(shadow, service.live_ids(), query, 6), result.keys,
                   "post-recovery");

  // Re-minting the erased id afterwards is a fresh point, not a replayed
  // tombstone: it must serve at its *new* location.
  const PointD fresh = random_point(2, rng);
  (void)service.insert(fresh, victim_id);
  shadow.emplace(victim_id, fresh);
  const QueryResult after = service.query(fresh);
  EXPECT_TRUE(after.coverage.complete());
  expect_same_keys(member_oracle(shadow, service.live_ids(), fresh, 6), after.keys,
                   "post-remint");
}

TEST(ChaosDirected, DeletesNeverResurrectThroughRevive) {
  Rng rng(27);
  KnnService service = make_live_service(3, 2, 6, /*fault_tolerant=*/true);
  std::unordered_map<PointId, PointD> shadow;
  for (PointId id = 1; id <= 18; ++id) {
    const PointD p = random_point(2, rng);
    shadow.emplace(id, p);
    (void)service.insert(p, id);
  }
  const std::vector<PointId> on_one = service.live_ids_on(1);
  ASSERT_FALSE(on_one.empty());
  const PointId victim_id = on_one.front();

  service.kill_machine(1);
  ASSERT_TRUE(service.erase(victim_id).has_value());
  service.revive_machine(1);  // applies the pending erase before rejoining
  EXPECT_FALSE(service.contains(victim_id));

  // The revived machine's shard serves again — and never the erased point.
  std::vector<PointId> members = service.live_ids();
  const PointD query = shadow.at(victim_id);  // its own location: worst case
  const QueryResult result = service.query(query);
  EXPECT_TRUE(result.coverage.complete());
  shadow.erase(victim_id);
  expect_same_keys(member_oracle(shadow, members, query, 6), result.keys, "post-revive");
}

TEST(ChaosDirected, RecoveryAndFaultSurfaceTypedErrors) {
  Rng rng(28);
  // Not fault-tolerant: the whole fault surface is a typed state error.
  KnnService plain = make_live_service(2, 1, 2, /*fault_tolerant=*/false);
  EXPECT_THROW(plain.kill_machine(0), ServiceStateError);
  EXPECT_THROW((void)plain.health(), ServiceStateError);
  EXPECT_THROW((void)plain.recover_all(), ServiceStateError);
  EXPECT_FALSE(plain.fault_tolerant());

  // Fault-tolerant: recovery of a machine that is not dead is refused.
  KnnService service = make_live_service(2, 1, 2, /*fault_tolerant=*/true);
  EXPECT_TRUE(service.fault_tolerant());
  EXPECT_THROW((void)service.recover_machine(0), ServiceStateError);
  service.kill_machine(0);
  (void)service.recover_machine(0);
  // Retired is terminal: not recoverable again.
  EXPECT_THROW((void)service.recover_machine(0), ServiceStateError);
}

// --- directed: the static fault-tolerant facade ------------------------------

TEST(ChaosDirected, StaticFaultTolerantServiceDegradesAndRevives) {
  const std::uint32_t k = 4;
  const std::uint64_t ell = 6;
  Rng rng(29);
  std::vector<VectorShard> shards(k);
  std::unordered_map<PointId, PointD> shadow;
  PointId next_id = 1;
  for (VectorShard& shard : shards) {
    for (int i = 0; i < 15; ++i) {
      const PointD p = random_point(3, rng);
      shard.points.push_back(p);
      shard.ids.push_back(next_id);
      shadow.emplace(next_id++, p);
    }
  }
  const auto build = [&](bool fault_tolerant) {
    KnnServiceBuilder builder;
    builder.ell(ell).metric(kChaosKind).cache_capacity(64).dataset_sharded(shards);
    if (fault_tolerant) builder.fault_tolerant();
    return builder.build();
  };
  KnnService service = build(true);
  KnnService twin = build(false);  // never fails
  ASSERT_FALSE(service.live());
  std::vector<PointD> queries;
  for (int q = 0; q < 5; ++q) queries.push_back(random_point(3, rng));

  // A killed machine drops out: answers are exact over the survivors and
  // the coverage names exactly the dead machine.
  service.kill_machine(2);
  std::vector<PointId> survivors;
  for (std::size_t m = 0; m < k; ++m) {
    if (m != 2) survivors.insert(survivors.end(), shards[m].ids.begin(), shards[m].ids.end());
  }
  for (const PointD& q : queries) {
    const QueryResult degraded = service.query(q);
    ASSERT_EQ(degraded.coverage.missing, (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(degraded.coverage.total, k);
    EXPECT_EQ(degraded.epoch, 0u);
    expect_same_keys(member_oracle(shadow, survivors, q, ell), degraded.keys, "static degraded");
  }
  service.revive_machine(2);

  // An Unresponsive machine is detected by the deadline probe of the next
  // cache-missing query.
  service.set_failure_mode(1, FailureMode{FailureModeKind::Unresponsive, 0});
  const QueryResult detected = service.query(random_point(3, rng));
  ASSERT_EQ(detected.coverage.missing, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(service.health().state(1), MachineState::Dead);
  service.revive_machine(1);

  // Revived: byte-identical to the never-failed twin, still at epoch 0.
  for (const PointD& q : queries) {
    const QueryResult got = service.query(q);
    EXPECT_TRUE(got.coverage.complete());
    EXPECT_EQ(got.epoch, 0u);
    expect_same_keys(twin.query(q).keys, got.keys, "static revived");
  }
  EXPECT_EQ(service.snapshot_epoch(), 0u);

  // Recovery re-homes points onto survivors, which a static service cannot.
  service.kill_machine(3);
  EXPECT_THROW((void)service.recover_machine(3), ServiceStateError);
}

// --- the chaos fuzz ----------------------------------------------------------

struct ChaosWorld {
  KnnService victim;     ///< fault-tolerant, gets killed and recovered
  KnnService reference;  ///< identical twin that never fails
  std::unordered_map<PointId, PointD> shadow;
  std::vector<PointId> live;  ///< ids currently member, insertion order
  PointId next_id = 1;
};

void chaos_insert(ChaosWorld& world, std::size_t dim, Rng& rng) {
  const PointId id = world.next_id++;
  const PointD p = random_point(dim, rng);
  (void)world.victim.insert(p, id);
  (void)world.reference.insert(p, id);
  world.shadow.emplace(id, p);
  world.live.push_back(id);
}

void chaos_erase(ChaosWorld& world, Rng& rng) {
  if (world.live.empty()) return;
  const std::size_t pick = static_cast<std::size_t>(rng.uniform01() * world.live.size()) %
                           world.live.size();
  const PointId id = world.live[pick];
  ASSERT_TRUE(world.victim.erase(id).has_value());
  ASSERT_TRUE(world.reference.erase(id).has_value());
  world.shadow.erase(id);
  world.live.erase(world.live.begin() + static_cast<std::ptrdiff_t>(pick));
}

void chaos_churn(ChaosWorld& world, std::size_t ops, std::size_t dim, Rng& rng) {
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.uniform01() < 0.65 || world.live.size() < 4) {
      chaos_insert(world, dim, rng);
    } else {
      chaos_erase(world, rng);
    }
  }
}

/// Queries both services, asserting the victim byte-exact: against the
/// reference when expected complete, against the surviving-shard oracle
/// when machines are down.
void chaos_check_queries(ChaosWorld& world, std::size_t queries, std::size_t dim,
                         std::uint64_t ell, const std::vector<std::uint32_t>& expect_missing,
                         std::uint32_t expect_total, Rng& rng, const char* label) {
  // Derive survivors from the *expected* dead set, not the health registry:
  // Unresponsive machines are still marked Alive until the first query's
  // deadline probes detect them.
  std::vector<PointId> survivors;
  if (!expect_missing.empty()) {
    for (std::size_t m = 0; m < world.victim.machines(); ++m) {
      if (std::find(expect_missing.begin(), expect_missing.end(),
                    static_cast<std::uint32_t>(m)) != expect_missing.end()) {
        continue;
      }
      const auto ids = world.victim.live_ids_on(m);
      survivors.insert(survivors.end(), ids.begin(), ids.end());
    }
  }
  for (std::size_t q = 0; q < queries; ++q) {
    const PointD query = random_point(dim, rng);
    const QueryResult got = world.victim.query(query);
    EXPECT_EQ(got.coverage.total, expect_total) << label;
    ASSERT_EQ(got.coverage.missing, expect_missing) << label;
    if (expect_missing.empty()) {
      const QueryResult want = world.reference.query(query);
      expect_same_keys(want.keys, got.keys, std::string(label) + " vs reference");
    } else {
      expect_same_keys(member_oracle(world.shadow, survivors, query, ell), got.keys,
                       std::string(label) + " vs surviving oracle");
    }
  }
}

TEST(ChaosFuzz, KillChurnRecoverStaysByteExact) {
  constexpr int kTrials = 160;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(4000 + static_cast<std::uint64_t>(trial));
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(trial % 4);  // 2..5
    const std::size_t dim = 1 + static_cast<std::size_t>(trial % 3);
    const std::uint64_t ell = 1 + static_cast<std::uint64_t>(trial % 5);

    ChaosWorld world{make_live_service(k, dim, ell, true),
                     make_live_service(k, dim, ell, false),
                     {},
                     {},
                     1};
    chaos_churn(world, 20 + static_cast<std::size_t>(trial % 10), dim, rng);
    chaos_check_queries(world, 2, dim, ell, {}, k, rng, "healthy");

    // Kill 1..k−1 machines mid-churn, alternating explicit kills with
    // deadline-detected unresponsiveness.
    const std::uint32_t kills = 1 + static_cast<std::uint32_t>(trial) % (k - 1 == 0 ? 1 : k - 1);
    std::vector<std::uint32_t> dead;
    for (std::uint32_t j = 0; j < kills && j < k - 1; ++j) {
      const auto machine = static_cast<std::uint32_t>((trial + 7 * j) % k);
      if (std::find(dead.begin(), dead.end(), machine) != dead.end()) continue;
      if ((trial + static_cast<int>(j)) % 2 == 0) {
        world.victim.kill_machine(machine);
      } else {
        world.victim.set_failure_mode(machine,
                                      FailureMode{FailureModeKind::Unresponsive, 0});
      }
      dead.push_back(machine);
    }
    std::sort(dead.begin(), dead.end());
    if (dead.size() == k) dead.pop_back();  // paranoia; never all machines

    // Churn continues while degraded: inserts route to survivors, erases of
    // points on dead machines defer to the mirror + pending queue.
    chaos_churn(world, 10, dim, rng);

    // Every degraded answer reports exactly the dead set and is byte-exact
    // over the shards that answered.  (The first query also performs the
    // deadline detection for the Unresponsive machines.)
    chaos_check_queries(world, 3, dim, ell, dead, k, rng, "degraded");

    // Recover: survivors elect a coordinator, dead shards re-home.  The
    // service must be byte-identical to the never-failed twin again.
    const auto reports = world.victim.recover_all();
    EXPECT_EQ(reports.size(), dead.size());
    for (const auto& report : reports) {
      EXPECT_NE(std::find(dead.begin(), dead.end(),
                          static_cast<std::uint32_t>(report.machine)),
                dead.end());
    }
    const auto expect_total = static_cast<std::uint32_t>(k - dead.size());
    chaos_check_queries(world, 3, dim, ell, {}, expect_total, rng, "recovered");
    EXPECT_EQ(world.victim.total_points(), world.reference.total_points());

    auto victim_ids = world.victim.live_ids();
    auto reference_ids = world.reference.live_ids();
    std::sort(victim_ids.begin(), victim_ids.end());
    std::sort(reference_ids.begin(), reference_ids.end());
    EXPECT_EQ(victim_ids, reference_ids);
  }
}

TEST(ChaosFuzz, KillChurnReviveAppliesPendingErases) {
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(9000 + static_cast<std::uint64_t>(trial));
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(trial % 3);  // 2..4
    const std::size_t dim = 1 + static_cast<std::size_t>(trial % 2);
    const std::uint64_t ell = 2 + static_cast<std::uint64_t>(trial % 4);

    ChaosWorld world{make_live_service(k, dim, ell, true),
                     make_live_service(k, dim, ell, false),
                     {},
                     {},
                     1};
    chaos_churn(world, 24, dim, rng);

    const auto machine = static_cast<std::uint32_t>(trial) % k;
    world.victim.kill_machine(machine);
    // Bias churn toward erases so pending deletes actually accumulate on
    // the dead machine.
    for (int i = 0; i < 8; ++i) chaos_erase(world, rng);
    chaos_churn(world, 6, dim, rng);

    world.victim.revive_machine(machine);
    chaos_check_queries(world, 3, dim, ell, {}, k, rng, "revived");
    EXPECT_EQ(world.victim.total_points(), world.reference.total_points());
    auto victim_ids = world.victim.live_ids();
    auto reference_ids = world.reference.live_ids();
    std::sort(victim_ids.begin(), victim_ids.end());
    std::sort(reference_ids.begin(), reference_ids.end());
    EXPECT_EQ(victim_ids, reference_ids);
  }
}

}  // namespace
}  // namespace dknn
