// Fault-layer suite: the MachineHealth registry (deadline/retry detection,
// liveness transitions, coverage), guarded scoring (dead machines skipped
// with byte parity when healthy), the extended FaultPlan (delay + duplicate
// modes, drop-only rng-stream pinning, injector lifetime), the engine's
// stall hook (transient stalls never deadlock; permanent stalls become a
// typed SimError, not a hang), survivor elections under every fault mode,
// and the recovery building blocks (ReplicaMirror, elect_coordinator).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/driver.hpp"
#include "election/min_id.hpp"
#include "election/sublinear.hpp"
#include "fault/health.hpp"
#include "fault/recovery.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/select.hpp"
#include "serve/segment_store.hpp"
#include "sim/collectives.hpp"
#include "sim/engine.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;
using testing_support::sealed_snapshots;

// --- MachineHealth: transitions, detection, coverage -------------------------

TEST(Health, StartsAliveWithCompleteCoverage) {
  MachineHealth health(4);
  EXPECT_EQ(health.machines(), 4u);
  EXPECT_EQ(health.alive_count(), 4u);
  EXPECT_EQ(health.generation(), 0u);
  const Coverage cov = health.coverage_now();
  EXPECT_EQ(cov.total, 4u);
  EXPECT_TRUE(cov.complete());
  EXPECT_DOUBLE_EQ(cov.fraction(), 1.0);
}

TEST(Health, KillReviveRetireTransitions) {
  MachineHealth health(3);
  health.kill(1);
  EXPECT_EQ(health.state(1), MachineState::Dead);
  EXPECT_EQ(health.generation(), 1u);
  Coverage cov = health.coverage_now();
  EXPECT_EQ(cov.total, 3u);
  ASSERT_EQ(cov.missing.size(), 1u);
  EXPECT_EQ(cov.missing[0], 1u);
  EXPECT_EQ(cov.answered(), 2u);

  health.revive(1);
  EXPECT_TRUE(health.alive(1));
  EXPECT_EQ(health.generation(), 2u);
  EXPECT_TRUE(health.coverage_now().complete());

  // Retired machines re-homed their data: out of coverage entirely.
  health.kill(1);
  health.retire(1);
  EXPECT_EQ(health.state(1), MachineState::Retired);
  cov = health.coverage_now();
  EXPECT_EQ(cov.total, 2u);
  EXPECT_TRUE(cov.complete());

  const HealthStats stats = health.stats();
  EXPECT_EQ(stats.kills, 2u);
  EXPECT_EQ(stats.revives, 1u);
  EXPECT_EQ(stats.retires, 1u);
}

TEST(Health, InvalidTransitionsThrow) {
  MachineHealth health(2);
  EXPECT_THROW(health.revive(0), std::logic_error);   // not dead
  EXPECT_THROW(health.retire(0), std::logic_error);   // not dead
  health.kill(0);
  EXPECT_THROW(health.kill(0), std::logic_error);     // already dead
  health.retire(0);
  EXPECT_THROW(health.revive(0), std::logic_error);   // retired is terminal
}

TEST(Health, CheckCallHealthyFirstProbe) {
  MachineHealth health(2);
  const CallReport report = health.check_call(0);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.backoff_ns, 0u);
}

TEST(Health, SlowMachineRecoversWithinRetryBudget) {
  HealthConfig config;
  config.max_retries = 2;
  config.backoff_ns = 100;
  MachineHealth health(2, config);
  health.set_failure_mode(1, FailureMode{FailureModeKind::Slow, 2});

  const CallReport report = health.check_call(1);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.attempts, 3u);          // 2 timeouts, then the answer
  EXPECT_EQ(report.backoff_ns, 100u + 200u);  // exponential: base, 2*base
  EXPECT_TRUE(health.alive(1));
  EXPECT_EQ(health.generation(), 0u);      // no liveness change

  // The slow spell is consumed: the next call answers immediately.
  EXPECT_EQ(health.check_call(1).attempts, 1u);
  EXPECT_EQ(health.stats().timeouts, 2u);
}

TEST(Health, UnresponsiveMachineDetectedDead) {
  HealthConfig config;
  config.max_retries = 2;
  MachineHealth health(3, config);
  health.set_failure_mode(2, FailureMode{FailureModeKind::Unresponsive, 0});

  const CallReport report = health.check_call(2);
  EXPECT_EQ(report.status, CallStatus::TimedOut);
  EXPECT_EQ(report.attempts, 3u);  // max_retries + 1 probes, then give up
  EXPECT_EQ(health.state(2), MachineState::Dead);
  EXPECT_EQ(health.generation(), 1u);
  EXPECT_EQ(health.stats().deaths_detected, 1u);

  // Already dead: no probes, immediate Dead status.
  const CallReport again = health.check_call(2);
  EXPECT_EQ(again.status, CallStatus::Dead);
  EXPECT_EQ(again.attempts, 0u);
}

TEST(Health, SlowBeyondBudgetDetectedDeadThenReviveClearsMode) {
  HealthConfig config;
  config.max_retries = 1;
  MachineHealth health(2, config);
  health.set_failure_mode(1, FailureMode{FailureModeKind::Slow, 10});

  EXPECT_EQ(health.check_call(1).status, CallStatus::TimedOut);
  EXPECT_EQ(health.state(1), MachineState::Dead);

  health.revive(1);
  // Revive clears the failure mode: the machine answers again.
  EXPECT_TRUE(health.check_call(1).ok());
}

// --- guarded scoring: skip dead machines, byte parity when healthy -----------

std::vector<PointD> fault_test_points(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<PointD> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> coords(dim);
    for (auto& c : coords) c = rng.uniform01() * 20.0 - 10.0;
    points.emplace_back(std::move(coords));
  }
  return points;
}

TEST(GuardedScoring, AllAliveByteIdenticalToUnguarded) {
  Rng rng(11);
  auto shards = make_vector_shards(fault_test_points(60, 3, rng), 4,
                                   PartitionScheme::RoundRobin, rng);
  const auto snapshots = sealed_snapshots(shards, 3, ServeConfig{.policy = ScoringPolicy::Auto});
  const auto queries = fault_test_points(5, 3, rng);

  const auto legacy = score_serve_snapshots_batch(snapshots, queries, 6, MetricKind::Euclidean);
  MachineHealth health(4);
  const GuardedScoreBatch guarded = score_serve_snapshots_batch_guarded(
      snapshots, queries, 6, MetricKind::Euclidean, health);

  EXPECT_TRUE(guarded.coverage.complete());
  EXPECT_EQ(guarded.coverage.total, 4u);
  ASSERT_EQ(guarded.scored.size(), legacy.size());
  for (std::size_t q = 0; q < legacy.size(); ++q) {
    for (std::size_t m = 0; m < legacy[q].size(); ++m) {
      expect_same_keys(legacy[q][m], guarded.scored[q][m], "guarded parity");
    }
  }
}

TEST(GuardedScoring, DeadMachineSkippedAndDegradedAnswerExact) {
  Rng rng(12);
  auto shards = make_vector_shards(fault_test_points(80, 2, rng), 4,
                                   PartitionScheme::RoundRobin, rng);
  const auto snapshots = sealed_snapshots(shards, 2, ServeConfig{.policy = ScoringPolicy::Brute});
  const auto queries = fault_test_points(4, 2, rng);
  const std::uint64_t ell = 5;

  const auto legacy = score_serve_snapshots_batch(snapshots, queries, ell,
                                                  MetricKind::SquaredEuclidean);
  MachineHealth health(4);
  health.kill(2);
  const GuardedScoreBatch guarded = score_serve_snapshots_batch_guarded(
      snapshots, queries, ell, MetricKind::SquaredEuclidean, health);

  EXPECT_EQ(guarded.coverage.total, 4u);
  ASSERT_EQ(guarded.coverage.missing, (std::vector<std::uint32_t>{2}));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(guarded.scored[q][2].empty());
    for (std::size_t m = 0; m < 4; ++m) {
      if (m == 2) continue;
      expect_same_keys(legacy[q][m], guarded.scored[q][m], "surviving shard");
    }
  }

  // The degraded end-to-end answer is byte-exact over the surviving shards:
  // run the protocol over the guarded grid, compare with a top-ell over the
  // union of the surviving machines' local keys.
  EngineConfig engine;
  engine.world_size = 4;
  engine.measure_compute = false;
  const BatchRunResult batch = run_knn_batch(guarded.scored, ell, KnnAlgo::DistKnn, engine);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<Key> pool;
    for (std::size_t m = 0; m < 4; ++m) {
      if (m == 2) continue;
      pool.insert(pool.end(), legacy[q][m].begin(), legacy[q][m].end());
    }
    const auto oracle = top_ell_smallest(std::span<const Key>(pool), ell);
    expect_same_keys(oracle, batch.per_query[q].keys, "degraded oracle");
  }
}

TEST(GuardedScoring, ServeSnapshotsSkipDeadStores) {
  Rng rng(13);
  const auto points = fault_test_points(30, 2, rng);
  ServeConfig serve;
  std::vector<std::unique_ptr<SegmentStore>> stores;
  std::vector<PointId> ids(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) ids[i] = static_cast<PointId>(i + 1);
  for (std::size_t m = 0; m < 3; ++m) stores.push_back(std::make_unique<SegmentStore>(2, serve));
  for (std::size_t i = 0; i < points.size(); ++i) stores[i % 3]->insert(points[i], ids[i]);

  std::vector<SnapshotPtr> snapshots;
  MachineHealth health(3);
  health.kill(0);
  // A dead machine's store is unreachable — its snapshot slot is null.
  snapshots.push_back(nullptr);
  snapshots.push_back(stores[1]->snapshot());
  snapshots.push_back(stores[2]->snapshot());

  const auto queries = fault_test_points(3, 2, rng);
  const GuardedScoreBatch guarded = score_serve_snapshots_batch_guarded(
      snapshots, queries, 4, MetricKind::Euclidean, health);
  ASSERT_EQ(guarded.coverage.missing, (std::vector<std::uint32_t>{0}));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(guarded.scored[q][0].empty());
    EXPECT_FALSE(guarded.scored[q][1].empty());
  }
}

TEST(GuardedScoring, MachineRecoveredAfterTheCallersViewIsMissingNotSilent) {
  // A Retired machine is skipped silently only when the caller's view
  // already has its points elsewhere (an empty slot).  A view taken before
  // the recovery — the machine's slot null (dead at publish) or still
  // holding its points — has that data nowhere else, so the machine is
  // reported missing.
  Rng rng(14);
  auto shards = make_vector_shards(fault_test_points(30, 2, rng), 3,
                                   PartitionScheme::RoundRobin, rng);
  const auto sealed = sealed_snapshots(shards, 2, ServeConfig{.policy = ScoringPolicy::Brute});
  const auto queries = fault_test_points(2, 2, rng);
  MachineHealth health(3);
  health.kill(1);
  health.retire(1);

  const SnapshotPtr empty = std::make_shared<const ServeSnapshot>();
  const std::vector<SnapshotPtr> recovered_before = {sealed[0], empty, sealed[2]};
  const GuardedScoreBatch silent = score_serve_snapshots_batch_guarded(
      recovered_before, queries, 4, MetricKind::Euclidean, health);
  EXPECT_EQ(silent.coverage.total, 2u);
  EXPECT_TRUE(silent.coverage.complete());

  const std::vector<SnapshotPtr> dead_at_publish = {sealed[0], nullptr, sealed[2]};
  for (const auto& view : {dead_at_publish, sealed}) {
    const GuardedScoreBatch stale = score_serve_snapshots_batch_guarded(
        view, queries, 4, MetricKind::Euclidean, health);
    EXPECT_EQ(stale.coverage.total, 3u);
    ASSERT_EQ(stale.coverage.missing, (std::vector<std::uint32_t>{1}));
    for (const auto& per_machine : stale.scored) EXPECT_TRUE(per_machine[1].empty());
  }
}

// --- engine stall hook: stalls degrade to typed errors, never hangs ----------

Task<void> three_barriers(Ctx& ctx) {
  co_await ctx.round();
  co_await ctx.round();
  co_await ctx.round();
}

TEST(EngineStall, TransientStallDelaysButCompletes) {
  EngineConfig config;
  config.world_size = 2;
  config.measure_compute = false;
  std::uint64_t stalls_issued = 0;
  config.stall_hook = [&stalls_issued](MachineId machine, std::uint64_t round) {
    if (machine == 1 && round < 4) {
      ++stalls_issued;
      return true;
    }
    return false;
  };
  Engine engine(config);
  const RunReport report = engine.run(three_barriers);
  EXPECT_EQ(stalls_issued, 4u);
  // Machine 1 only starts at round 4; the run must cover its three barriers.
  EXPECT_GE(report.rounds, 6u);
}

TEST(EngineStall, PermanentStallIsTypedRoundBudgetError) {
  EngineConfig config;
  config.world_size = 1;
  config.max_rounds = 64;
  config.measure_compute = false;
  config.stall_hook = [](MachineId, std::uint64_t) { return true; };
  Engine engine(config);
  try {
    (void)engine.run(three_barriers);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("round budget"), std::string::npos);
  }
}

// --- FaultPlan: delay and duplicate modes ------------------------------------

Envelope fault_env(MachineId src, MachineId dst, Tag tag, std::size_t bytes) {
  Envelope env;
  env.src = src;
  env.dst = dst;
  env.tag = tag;
  env.payload = Bytes(bytes, std::byte{0x5A});
  return env;
}

NetworkConfig fault_net(std::uint32_t k) {
  NetworkConfig c;
  c.world_size = k;
  c.policy = BandwidthPolicy::Unlimited;
  c.bits_per_round = 64;
  return c;
}

TEST(FaultPlan, DelayEntersLinkLate) {
  Network net(fault_net(2));
  FaultPlan plan;
  plan.delay_probability = 1.0;
  plan.delay_rounds = 2;
  FaultInjector injector(net, plan, 1);

  net.set_current_round(0);
  net.send(fault_env(0, 1, 7, 4));
  net.end_round(0);
  EXPECT_TRUE(net.collect_delivered(1).empty());
  // The delayed message must keep the network in flight — otherwise the
  // engine's deadlock detector would fire while a wake-up is merely late.
  EXPECT_TRUE(net.in_flight());

  net.set_current_round(1);
  net.end_round(1);
  EXPECT_TRUE(net.collect_delivered(1).empty());

  net.set_current_round(2);
  net.end_round(2);  // release_round = 0 + 2: enters the link now
  const auto delivered = net.collect_delivered(1);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].tag, 7u);
  EXPECT_EQ(injector.delays(), 1u);
  EXPECT_FALSE(net.in_flight());
}

TEST(FaultPlan, DuplicateTransmitsTwiceWithSameSeq) {
  Network net(fault_net(2));
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  FaultInjector injector(net, plan, 1);

  net.set_current_round(0);
  net.send(fault_env(0, 1, 3, 4));
  net.end_round(0);
  const auto delivered = net.collect_delivered(1);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].seq, delivered[1].seq);
  EXPECT_EQ(injector.duplicates(), 1u);
  // Both copies count as traffic — duplicates burn real bandwidth.
  EXPECT_EQ(net.stats().messages_sent(), 2u);
}

TEST(FaultPlan, PrecedenceDropBeatsDelayAndDuplicate) {
  Network net(fault_net(2));
  FaultPlan plan;
  plan.drop_probability = 1.0;
  plan.delay_probability = 1.0;
  plan.duplicate_probability = 1.0;
  FaultInjector injector(net, plan, 1);

  net.set_current_round(0);
  for (int i = 0; i < 5; ++i) net.send(fault_env(0, 1, 1, 4));
  net.end_round(0);
  EXPECT_TRUE(net.collect_delivered(1).empty());
  EXPECT_EQ(injector.drops(), 5u);
  EXPECT_EQ(injector.delays(), 0u);
  EXPECT_EQ(injector.duplicates(), 0u);
}

TEST(FaultPlan, DropOnlyRngStreamIsPinned) {
  // The determinism contract of fault.hpp: a drop-only plan consumes
  // exactly one bernoulli draw per eligible message, so its drop decisions
  // match a hand-rolled replica of the pre-delay/duplicate injector draw
  // for draw.  If the filter ever takes extra draws (e.g. for the disabled
  // delay/duplicate stages), this fails.
  const double p = 0.35;
  const std::uint64_t seed = 99;
  const int n = 200;

  Network net(fault_net(2));
  FaultPlan plan;
  plan.drop_probability = p;
  FaultInjector injector(net, plan, seed);
  net.set_current_round(0);
  for (int i = 0; i < n; ++i) net.send(fault_env(0, 1, static_cast<Tag>(i), 4));
  net.end_round(0);

  std::vector<Tag> expected;
  Rng replica(seed);
  for (int i = 0; i < n; ++i) {
    if (!replica.bernoulli(p)) expected.push_back(static_cast<Tag>(i));
  }
  std::vector<Tag> actual;
  for (const auto& env : net.collect_delivered(1)) actual.push_back(env.tag);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(injector.drops(), static_cast<std::uint64_t>(n) - expected.size());
}

TEST(FaultPlan, InjectorDestroyedBeforeRunStillApplies) {
  // Regression: the network co-owns the filter state, so an injector that
  // goes out of scope before (or during) the run must not dangle.
  Network net(fault_net(2));
  {
    FaultPlan plan;
    plan.drop_probability = 1.0;
    FaultInjector injector(net, plan, 1);
  }  // injector destroyed; the installed plan keeps acting
  net.set_current_round(0);
  net.send(fault_env(0, 1, 1, 4));
  net.end_round(0);
  EXPECT_TRUE(net.collect_delivered(1).empty());
  EXPECT_EQ(net.stats().messages_sent(), 0u);
}

TEST(FaultPlan, DelayedMessageWakesMailParkedMachine) {
  // End-to-end through the engine: a delayed message must not trip the
  // deadlock detector while it is held outside the links.
  EngineConfig config;
  config.world_size = 2;
  config.measure_compute = false;
  config.max_rounds = 64;
  Engine engine(config);
  FaultPlan plan;
  plan.delay_probability = 1.0;
  plan.delay_rounds = 3;
  FaultInjector injector(engine.network(), plan, 1);

  std::vector<std::uint32_t> received(2, 0);
  const RunReport report = engine.run([&received](Ctx& ctx) -> Task<void> {
    if (ctx.id() == 0) {
      ctx.send_value<std::uint32_t>(1, 9, 42u);
    } else {
      received[ctx.id()] = co_await recv_value<std::uint32_t>(ctx, 9);
    }
    co_return;
  });
  EXPECT_EQ(received[1], 42u);
  EXPECT_EQ(injector.delays(), 1u);
  EXPECT_GE(report.rounds, 4u);  // 3 rounds late + delivery
}

TEST(FaultPlan, DuplicatesAreInvisibleToPrograms) {
  // The Ctx suppresses repeats by (src, seq): a duplicate-everything plan
  // changes traffic, not protocol behaviour — recv_n(k-1) still sees one
  // announcement per peer.
  EngineConfig config;
  config.world_size = 4;
  config.measure_compute = false;
  config.max_rounds = 64;
  Engine engine(config);
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  FaultInjector injector(engine.network(), plan, 1);

  std::vector<std::size_t> counts(4, 0);
  (void)engine.run([&counts](Ctx& ctx) -> Task<void> {
    for (MachineId m = 0; m < ctx.world(); ++m) {
      if (m != ctx.id()) ctx.send_value<std::uint32_t>(m, 5, ctx.id());
    }
    const auto envs = co_await recv_n(ctx, 5, ctx.world() - 1);
    std::set<MachineId> sources;
    for (const auto& env : envs) sources.insert(env.src);
    counts[ctx.id()] = sources.size();
    // After exactly world-1 distinct messages, nothing further may arrive.
    co_await ctx.round();
    if (ctx.mailbox_size() != 0) throw std::runtime_error("duplicate leaked to mailbox");
  });
  EXPECT_EQ(injector.duplicates(), 12u);
  for (const std::size_t c : counts) EXPECT_EQ(c, 3u);
}

/// One message as a program took it from its mailbox.
struct Receipt {
  MachineId src = kNoMachine;
  std::uint32_t index = 0;  ///< the sender's send order on this link
  std::uint64_t sent_round = 0;
  std::uint64_t taken_round = 0;
};

constexpr Tag kExchangeTag = 11;

/// Every machine sends `per_link` messages to every peer, one per round,
/// each naming its sender and send index (padded to `payload_words` u32s),
/// and takes its mail every round into `log` until it holds all of them
/// and `drain_rounds` more rounds have passed (so a leaked copy shows).
Task<void> exchange_program(Ctx& ctx, std::vector<std::vector<Receipt>>* log,
                            std::uint32_t per_link, std::size_t payload_words,
                            std::uint64_t drain_rounds) {
  auto& mine = (*log)[ctx.id()];
  auto take_mail = [&] {
    while (auto env = ctx.try_take(kExchangeTag)) {
      const auto words = from_bytes<std::vector<std::uint32_t>>(env->payload);
      mine.push_back(Receipt{env->src, words.at(1), env->sent_round, ctx.current_round()});
    }
  };
  const std::size_t expected = static_cast<std::size_t>(ctx.world() - 1) * per_link;
  for (std::uint32_t i = 0; i < per_link; ++i) {
    for (MachineId m = 0; m < ctx.world(); ++m) {
      std::vector<std::uint32_t> words(payload_words, 0);
      words[0] = ctx.id();
      words[1] = i;
      if (m != ctx.id()) ctx.send_value(m, kExchangeTag, words);
    }
    take_mail();
    co_await ctx.round();
  }
  while (mine.size() < expected) {
    take_mail();
    if (mine.size() < expected) co_await ctx.round();
  }
  for (std::uint64_t r = 0; r < drain_rounds; ++r) {
    co_await ctx.round();
    take_mail();
  }
}

/// Each receiver took every (src, index) exactly once, and each sender's
/// messages for which `on_time` holds in send order.  Returns how many
/// receipts arrived behind a later-sent message from the same sender.
template <typename OnTime>
std::size_t expect_exactly_once(const std::vector<std::vector<Receipt>>& log,
                                std::uint32_t per_link, OnTime on_time) {
  std::size_t overtaken = 0;
  for (MachineId dst = 0; dst < log.size(); ++dst) {
    std::multiset<std::pair<MachineId, std::uint32_t>> seen;
    for (const Receipt& r : log[dst]) seen.emplace(r.src, r.index);
    std::multiset<std::pair<MachineId, std::uint32_t>> want;
    for (MachineId src = 0; src < log.size(); ++src) {
      for (std::uint32_t i = 0; src != dst && i < per_link; ++i) want.emplace(src, i);
    }
    EXPECT_EQ(seen, want) << "receiver " << dst;
    for (MachineId src = 0; src < log.size(); ++src) {
      std::int64_t last_on_time = -1;
      std::int64_t highest = -1;
      for (const Receipt& r : log[dst]) {
        if (r.src != src) continue;
        if (static_cast<std::int64_t>(r.index) < highest) ++overtaken;
        highest = std::max<std::int64_t>(highest, r.index);
        if (!on_time(r)) continue;
        EXPECT_GT(static_cast<std::int64_t>(r.index), last_on_time)
            << "receiver " << dst << " source " << src;
        last_on_time = r.index;
      }
    }
  }
  return overtaken;
}

TEST(FaultPlan, DuplicatesSuppressedExactlyUnderChunkingAndDelay) {
  constexpr std::uint32_t kMachines = 4;
  constexpr std::uint32_t kPerLink = 6;
  {
    // Chunked: a 25-byte payload takes 4 rounds of a 64-bit link, so a copy
    // lands rounds after its original, in a later delivery batch.
    EngineConfig config;
    config.world_size = kMachines;
    config.bandwidth = BandwidthPolicy::Chunked;
    config.bits_per_round = 64;
    config.measure_compute = false;
    config.max_rounds = 512;
    Engine engine(config);
    FaultPlan plan;
    plan.duplicate_probability = 0.5;
    FaultInjector injector(engine.network(), plan, 3);
    std::vector<std::vector<Receipt>> log(kMachines);
    ASSERT_NO_THROW((void)engine.run(
        [&log](Ctx& ctx) { return exchange_program(ctx, &log, kPerLink, 6, 8); }));
    EXPECT_GT(injector.duplicates(), 0u);
    EXPECT_EQ(expect_exactly_once(log, kPerLink, [](const Receipt&) { return true; }), 0u);
  }
  {
    // Delay + duplicate: a delayed message enters its link two rounds late,
    // behind messages sent after it, while copies still sit right behind
    // their originals.  Under Unlimited a message on time arrives the round
    // after it was sent.
    EngineConfig config;
    config.world_size = kMachines;
    config.measure_compute = false;
    config.max_rounds = 512;
    Engine engine(config);
    FaultPlan plan;
    plan.delay_probability = 0.4;
    plan.delay_rounds = 2;
    plan.duplicate_probability = 0.4;
    FaultInjector injector(engine.network(), plan, 5);
    std::vector<std::vector<Receipt>> log(kMachines);
    ASSERT_NO_THROW((void)engine.run(
        [&log](Ctx& ctx) { return exchange_program(ctx, &log, kPerLink, 2, 8); }));
    EXPECT_GT(injector.delays(), 0u);
    EXPECT_GT(injector.duplicates(), 0u);
    const std::size_t overtaken = expect_exactly_once(
        log, kPerLink, [](const Receipt& r) { return r.taken_round == r.sent_round + 1; });
    EXPECT_GT(overtaken, 0u) << "no delayed message arrived behind a later-sent one";
  }
}

// --- elections under faults: agreement or a typed error, never a hang --------

Task<void> fault_min_id_program(Ctx& ctx, std::vector<ElectionOutcome>* outcomes) {
  (*outcomes)[ctx.id()] = co_await elect_min_id(ctx);
}

Task<void> fault_sublinear_program(Ctx& ctx, std::vector<ElectionOutcome>* outcomes) {
  (*outcomes)[ctx.id()] = co_await elect_sublinear(ctx);
}

EngineConfig election_config(std::uint32_t k, std::uint64_t seed) {
  EngineConfig c;
  c.world_size = k;
  c.seed = seed;
  c.measure_compute = false;
  c.max_rounds = 512;  // lost-message stalls must fail fast, not hang
  return c;
}

TEST(ElectionFaults, DropPlansAgreeOrFailTyped) {
  const std::uint32_t k = 6;
  for (const double p : {0.05, 0.2, 0.5}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (const bool sublinear : {false, true}) {
        std::vector<ElectionOutcome> outcomes(k);
        Engine engine(election_config(k, seed));
        FaultPlan plan;
        plan.drop_probability = p;
        FaultInjector injector(engine.network(), plan, seed * 31 + 1);
        try {
          (void)engine.run([&outcomes, sublinear](Ctx& ctx) {
            return sublinear ? fault_sublinear_program(ctx, &outcomes)
                             : fault_min_id_program(ctx, &outcomes);
          });
        } catch (const SimError&) {
          continue;  // diagnosable: deadlock detection or round budget
        }
        if (injector.drops() > 0 && !sublinear) {
          // min-id needs every announcement; if one was dropped the run
          // can only have ended through a SimError handled above.
          ADD_FAILURE() << "min-id completed despite " << injector.drops() << " drops";
        }
        std::set<MachineId> leaders;
        for (const auto& outcome : outcomes) leaders.insert(outcome.leader);
        EXPECT_EQ(leaders.size(), 1u) << "p=" << p << " seed=" << seed
                                      << " sublinear=" << sublinear;
      }
    }
  }
}

TEST(ElectionFaults, DelayOnlyPlansMinIdMustAgree) {
  // Nothing is lost under a delay plan, and min-id waits for every
  // announcement — late traffic only stretches the run.
  const std::uint32_t k = 5;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::vector<ElectionOutcome> outcomes(k);
    Engine engine(election_config(k, seed));
    FaultPlan plan;
    plan.delay_probability = 0.5;
    plan.delay_rounds = 2;
    FaultInjector injector(engine.network(), plan, seed * 17 + 3);
    (void)engine.run(
        [&outcomes](Ctx& ctx) { return fault_min_id_program(ctx, &outcomes); });
    EXPECT_GE(injector.delays(), 1u);
    for (const auto& outcome : outcomes) EXPECT_EQ(outcome.leader, 0u) << "seed=" << seed;
  }
}

TEST(ElectionFaults, DelayOnlyPlansSublinearAgreesOrDesyncs) {
  // The sublinear protocol is phase-synchronous: a message delayed across
  // an attempt boundary is detected and thrown as ElectionDesyncError —
  // never a silent wrong leader, never a hang.
  const std::uint32_t k = 5;
  std::size_t agreements = 0;
  std::size_t desyncs = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::vector<ElectionOutcome> outcomes(k);
    Engine engine(election_config(k, seed));
    FaultPlan plan;
    plan.delay_probability = 0.5;
    plan.delay_rounds = 2;
    FaultInjector injector(engine.network(), plan, seed * 17 + 3);
    try {
      (void)engine.run(
          [&outcomes](Ctx& ctx) { return fault_sublinear_program(ctx, &outcomes); });
    } catch (const ElectionDesyncError&) {
      ++desyncs;
      continue;
    } catch (const SimError&) {
      ++desyncs;  // a desynced machine parked forever: round budget / deadlock
      continue;
    }
    std::set<MachineId> leaders;
    for (const auto& outcome : outcomes) leaders.insert(outcome.leader);
    ASSERT_EQ(leaders.size(), 1u) << "seed=" << seed;
    ++agreements;
  }
  // Both outcomes must actually occur across the seed sweep, or the test
  // proves less than it claims.
  EXPECT_GT(agreements + desyncs, 0u);
}

TEST(ElectionFaults, DuplicateOnlyPlansMustAgree) {
  const std::uint32_t k = 5;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool sublinear : {false, true}) {
      std::vector<ElectionOutcome> outcomes(k);
      Engine engine(election_config(k, seed));
      FaultPlan plan;
      plan.duplicate_probability = 0.6;
      FaultInjector injector(engine.network(), plan, seed * 13 + 7);
      (void)engine.run([&outcomes, sublinear](Ctx& ctx) {
        return sublinear ? fault_sublinear_program(ctx, &outcomes)
                         : fault_min_id_program(ctx, &outcomes);
      });
      std::set<MachineId> leaders;
      for (const auto& outcome : outcomes) leaders.insert(outcome.leader);
      ASSERT_EQ(leaders.size(), 1u) << "seed=" << seed << " sublinear=" << sublinear;
      if (!sublinear) {
        EXPECT_EQ(*leaders.begin(), 0u);
      }
    }
  }
}

// --- recovery building blocks ------------------------------------------------

/// Survivors 0, 2, 4, ..., 30: sixteen machines.
std::vector<std::uint32_t> sixteen_survivors() {
  std::vector<std::uint32_t> alive(16);
  for (std::uint32_t i = 0; i < 16; ++i) alive[i] = 2 * i;
  return alive;
}

// The reported costs are one protocol's alone: an election chosen by a
// conditional expression with a co_await in each arm ran (and billed) both
// protocols under g++ 12 — MinId over three survivors then read 5 rounds
// and 20 messages.
TEST(Recovery, ElectCoordinatorMinIdPicksSmallestSurvivor) {
  const std::vector<std::uint32_t> alive = {2, 4, 5};
  const ElectionRun run = elect_coordinator(alive, ElectionKind::MinId, 1);
  EXPECT_EQ(run.coordinator, 2u);  // engine id 0 maps back to survivor 2
  EXPECT_EQ(run.rounds, 2u);
  EXPECT_EQ(run.messages, 6u);  // k(k − 1)
  EXPECT_EQ(run.attempts, 1u);

  const ElectionRun wide = elect_coordinator(sixteen_survivors(), ElectionKind::MinId, 1);
  EXPECT_EQ(wide.coordinator, 0u);
  EXPECT_EQ(wide.rounds, 2u);
  EXPECT_EQ(wide.messages, 240u);  // 16 · 15
  EXPECT_EQ(wide.attempts, 1u);
}

TEST(Recovery, ElectCoordinatorSublinearPicksASurvivor) {
  const std::vector<std::uint32_t> alive = {1, 3, 6, 7, 9};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ElectionRun run = elect_coordinator(alive, ElectionKind::Sublinear, seed);
    EXPECT_NE(std::find(alive.begin(), alive.end(), run.coordinator), alive.end());
    EXPECT_GE(run.attempts, 1u);
  }

  const ElectionRun three = elect_coordinator({2, 4, 5}, ElectionKind::Sublinear, 1);
  EXPECT_EQ(three.rounds, 4u);
  EXPECT_EQ(three.messages, 14u);
  const ElectionRun wide = elect_coordinator(sixteen_survivors(), ElectionKind::Sublinear, 1);
  EXPECT_EQ(wide.rounds, 4u);
  EXPECT_EQ(wide.messages, 155u);
}

TEST(Recovery, ElectCoordinatorSingleSurvivorAndEmpty) {
  const ElectionRun run = elect_coordinator({3}, ElectionKind::MinId, 1);
  EXPECT_EQ(run.coordinator, 3u);
  EXPECT_THROW((void)elect_coordinator({}, ElectionKind::MinId, 1), NoLiveMachinesError);
}

TEST(Recovery, MirrorTracksOwnershipAndRecoversAscending) {
  ReplicaMirror mirror(3);
  mirror.record(0, ReplicaRecord{PointD({1.0}), 30, std::nullopt, std::nullopt});
  mirror.record(0, ReplicaRecord{PointD({2.0}), 10, 7u, std::nullopt});
  mirror.record(1, ReplicaRecord{PointD({3.0}), 20, std::nullopt, 0.5});
  EXPECT_EQ(mirror.total_points(), 3u);
  EXPECT_EQ(mirror.points_on(0), 2u);
  EXPECT_TRUE(mirror.contains(10));
  EXPECT_EQ(mirror.machine_of(20), std::optional<std::size_t>{1});

  // Erase while the owner is "down": membership leaves immediately.
  mirror.erase(30);
  EXPECT_FALSE(mirror.contains(30));

  const auto records = mirror.recover(0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, 10u);
  EXPECT_EQ(records[0].label, std::optional<std::uint32_t>{7u});
  EXPECT_EQ(mirror.points_on(0), 0u);
  EXPECT_FALSE(mirror.contains(10));  // re-homed by the caller, not the mirror
  EXPECT_EQ(mirror.total_points(), 1u);
}

}  // namespace
}  // namespace dknn
