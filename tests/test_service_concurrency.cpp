// Concurrency suite for the KnnService facade's lock-free read path: the
// coalescing seat under arrival storms (directed), and full-service fuzzes
// where readers race inserts, erases, background compaction and — in the
// fault-tolerant variant — machine kills/revives/recoveries.  Correctness
// stays exact: every recorded answer is verified post-join against a
// brute-force oracle over the membership at the answer's epoch (restricted
// to the machines its own coverage says answered).  Small workloads on
// purpose: the suite runs under TSan in CI.
//
// Oracle-mapping discipline (the part that makes "which state did this
// answer see?" well-posed under races): membership-changing mutators
// serialize on a test-side mutex and record (published epoch, live set)
// history entries; readers never take that mutex.  Compaction publishes
// epochs too but never changes membership, so the live set at epoch E is
// the entry with the greatest recorded epoch ≤ E.  In the fault-tolerant
// fuzz the eraser only targets points homed on ALIVE machines — erasing
// from a dead machine changes membership *without* advancing the data
// epoch (the tombstone is pended), which would make two history entries
// share an epoch and the mapping ambiguous; it is also what keeps revive
// membership-neutral (no pending erases to apply).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/metric.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/select.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;

constexpr MetricKind kKind = MetricKind::SquaredEuclidean;

/// Brute-force top-ℓ over an explicit membership set — the same oracle
/// shape every parity suite anchors on.
std::vector<Key> member_oracle(const std::unordered_map<PointId, PointD>& shadow,
                               const std::vector<PointId>& members, const PointD& query,
                               std::uint64_t ell) {
  std::vector<Key> pool;
  pool.reserve(members.size());
  for (const PointId id : members) {
    pool.push_back(Key{encode_distance(metric_distance(kKind, shadow.at(id), query)), id});
  }
  return top_ell_smallest(std::span<const Key>(pool), ell);
}

bool same_keys(const std::vector<Key>& want, const std::vector<Key>& got) {
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].rank != got[i].rank || want[i].id != got[i].id) return false;
  }
  return true;
}

// --- directed: the facade coalescing seat ------------------------------------

TEST(ServiceConcurrency, SeatStormRespectsCapAndStaysByteExact) {
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 40;
  constexpr std::size_t kCap = 4;
  Rng rng(61);
  KnnService service = KnnServiceBuilder()
                           .machines(3)
                           .ell(5)
                           .metric(kKind)
                           .seed(7)
                           .coalesce(kCap)  // max_delay 0: storms only
                           .dataset(uniform_points(80, 2, 50.0, rng))
                           .build();
  const auto query_pool = uniform_points(10, 2, 50.0, rng);
  std::vector<std::vector<Key>> want;
  for (const PointD& q : query_pool) want.push_back(service.query(q).keys);

  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> cap_violations{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // start the storm together
      Rng qrng(900 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t pick = qrng.below(query_pool.size());
        const QueryResult result = service.query(query_pool[pick]);
        if (result.batch_size < 1 || result.batch_size > kCap) cap_violations.fetch_add(1);
        if (!same_keys(want[pick], result.keys)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cap_violations.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, query_pool.size() + kThreads * kPerThread);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

TEST(ServiceConcurrency, ArrivalsMidExecuteAreEventuallyServed) {
  // A one-query seat: with coalesce(1) every execute scores exactly one
  // query, so every other concurrent arrival lands mid-execute and must be
  // re-elected by the retiring leader's notify_all.  A lost wakeup hangs
  // (gtest's timeout is the assertion); bytes are checked on top.
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 40;
  constexpr std::uint64_t kEll = 4;
  Rng rng(51);
  KnnService service = KnnServiceBuilder()
                           .machines(1)
                           .ell(kEll)
                           .metric(kKind)
                           .dim(2)
                           .live()
                           .coalesce(1)
                           .cache_capacity(0)
                           .build();
  std::unordered_map<PointId, PointD> shadow;
  std::vector<PointId> members;
  for (PointId id = 1; id <= 40; ++id) {
    const PointD p = uniform_points(1, 2, 50.0, rng)[0];
    (void)service.insert(p, id);
    shadow.emplace(id, p);
    members.push_back(id);
  }
  const auto query_pool = uniform_points(8, 2, 50.0, rng);
  std::vector<std::vector<Key>> want;
  for (const PointD& q : query_pool) want.push_back(member_oracle(shadow, members, q, kEll));

  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> oversized{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // start the storm together
      Rng qrng(600 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t pick = qrng.below(query_pool.size());
        const QueryResult result = service.query(query_pool[pick]);
        if (result.batch_size != 1) oversized.fetch_add(1);
        if (!same_keys(want[pick], result.keys)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(oversized.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, kThreads * kPerThread);
  EXPECT_EQ(stats.batches, stats.queries);  // one query per execute
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

TEST(ServiceConcurrency, MixedPerCallOverridesCoalesceByteExact) {
  // Batch-mates with different per-call ℓ/metric ride the same seat but
  // score in separate groups: every answer must match the dedicated
  // service built with its effective knobs, byte for byte, and the
  // extended cache key must keep the variants from colliding mid-storm.
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 30;
  Rng rng(62);
  const auto points = uniform_points(90, 3, 50.0, rng);
  const auto build = [&](std::uint64_t ell, MetricKind kind) {
    return KnnServiceBuilder()
        .machines(3)
        .ell(ell)
        .metric(kind)
        .seed(9)
        .coalesce(8, std::chrono::microseconds{200})  // wait for mixed company
        .cache_capacity(64)
        .dataset(points)
        .build();
  };
  KnnService service = build(4, kKind);
  KnnService wider_ref = build(7, kKind);
  KnnService manhattan_ref = build(4, MetricKind::Manhattan);

  const auto query_pool = uniform_points(8, 3, 50.0, rng);
  // Three reference families, one per thread flavor.
  std::vector<std::vector<Key>> want_canonical;
  std::vector<std::vector<Key>> want_wider;
  std::vector<std::vector<Key>> want_manhattan;
  for (const PointD& q : query_pool) {
    want_canonical.push_back(service.query(q).keys);
    want_wider.push_back(wider_ref.query(q).keys);
    want_manhattan.push_back(manhattan_ref.query(q).keys);
  }

  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      QueryOptions options;
      const std::vector<std::vector<Key>>* want = &want_canonical;
      if (t % 3 == 1) {
        options.ell = 7;
        want = &want_wider;
      } else if (t % 3 == 2) {
        options.metric = MetricKind::Manhattan;
        want = &want_manhattan;
      }
      Rng qrng(950 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t pick = qrng.below(query_pool.size());
        const QueryResult result = service.query(query_pool[pick], options);
        if (!same_keys((*want)[pick], result.keys)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

TEST(ServiceConcurrency, InterleavedQueryAndBatchPathsStayByteExact) {
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRounds = 25;
  Rng rng(63);
  KnnService service = KnnServiceBuilder()
                           .machines(2)
                           .ell(4)
                           .metric(kKind)
                           .seed(11)
                           .coalesce(4, std::chrono::microseconds{50})
                           .cache_capacity(64)
                           .dataset(uniform_points(70, 2, 50.0, rng))
                           .build();
  const auto query_pool = uniform_points(9, 2, 50.0, rng);
  std::vector<std::vector<Key>> want;
  for (const PointD& q : query_pool) want.push_back(service.query(q).keys);

  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      Rng qrng(970 + t);
      for (std::size_t round = 0; round < kRounds; ++round) {
        if ((round + t) % 2 == 0) {
          const std::size_t pick = qrng.below(query_pool.size());
          if (!same_keys(want[pick], service.query(query_pool[pick]).keys)) {
            mismatches.fetch_add(1);
          }
        } else {
          std::vector<std::size_t> picks(3);
          std::vector<PointD> block;
          for (auto& pick : picks) {
            pick = qrng.below(query_pool.size());
            block.push_back(query_pool[pick]);
          }
          const BatchQueryResult results = service.query_batch(block);
          for (std::size_t i = 0; i < picks.size(); ++i) {
            if (!same_keys(want[picks[i]], results.per_query[i].keys)) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

// --- fuzz: lock-free reads vs live mutation ----------------------------------

TEST(ServiceConcurrency, ReadersRaceWritersAndCompactionByteExact) {
  constexpr std::size_t kDim = 2;
  constexpr std::uint64_t kEll = 5;
  constexpr std::size_t kQueryThreads = 2;
  constexpr std::size_t kQueriesPerThread = 50;
  constexpr std::size_t kBatchRounds = 25;
  constexpr int kInserts = 160;
  constexpr int kErases = 100;

  Rng rng(71);
  BatchScoringConfig scoring;
  scoring.threads = 2;  // the service owns a pool → maybe_compact() goes background
  CompactionConfig compaction;
  compaction.max_dead_fraction = 0.15;
  compaction.min_segment_points = 24;
  KnnService service = KnnServiceBuilder()
                           .machines(3)
                           .ell(kEll)
                           .metric(kKind)
                           .seed(13)
                           .dim(kDim)
                           .live()
                           .scoring(scoring)
                           .compaction(compaction)
                           .coalesce(4)
                           .cache_capacity(128)
                           .build();

  std::unordered_map<PointId, PointD> shadow;
  std::vector<PointId> live;
  // (published epoch, live ids) after every membership change; strictly
  // increasing epochs (see the file comment for why that holds).
  std::vector<std::pair<std::uint64_t, std::vector<PointId>>> history;
  std::mutex test_mutex;  // mutators only — readers never touch it

  {
    const std::lock_guard<std::mutex> lock(test_mutex);
    Rng seed_rng(72);
    for (PointId id = 1; id <= 48; ++id) {
      const PointD p = uniform_points(1, kDim, 50.0, seed_rng)[0];
      shadow.emplace(id, p);
      const std::uint64_t epoch = service.insert(p, id);
      live.push_back(id);
      if (id == 48) history.emplace_back(epoch, live);
    }
  }
  const auto query_pool = uniform_points(16, kDim, 50.0, rng);

  std::thread inserter([&] {
    Rng irng(73);
    PointId next_id = 1000;
    for (int step = 0; step < kInserts; ++step) {
      const PointD p = uniform_points(1, kDim, 50.0, irng)[0];
      const std::lock_guard<std::mutex> lock(test_mutex);
      const PointId id = next_id++;
      shadow.emplace(id, p);
      const std::uint64_t epoch = service.insert(p, id);
      live.push_back(id);
      history.emplace_back(epoch, live);
    }
  });
  std::thread eraser([&] {
    Rng erng(74);
    for (int step = 0; step < kErases; ++step) {
      const std::lock_guard<std::mutex> lock(test_mutex);
      if (live.size() < 8) continue;  // keep the set interesting
      const std::size_t victim = erng.below(live.size());
      const std::optional<std::uint64_t> epoch = service.erase(live[victim]);
      ASSERT_TRUE(epoch.has_value());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      history.emplace_back(*epoch, live);
    }
  });
  std::atomic<bool> stop_compacting{false};
  std::thread compactor([&] {
    // No test mutex: installs land whenever they land — they advance
    // epochs but never membership, so the oracle mapping is unaffected.
    while (!stop_compacting.load()) {
      (void)service.maybe_compact();
      std::this_thread::yield();
    }
  });

  struct Recorded {
    std::size_t query_index = 0;
    QueryResult result;
  };
  std::vector<std::vector<Recorded>> recorded(kQueryThreads + 1);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng qrng(7500 + t);
      for (std::size_t i = 0; i < kQueriesPerThread; ++i) {
        const std::size_t pick = qrng.below(query_pool.size());
        recorded[t].push_back(Recorded{pick, service.query(query_pool[pick])});
      }
    });
  }
  readers.emplace_back([&] {
    Rng qrng(7600);
    for (std::size_t round = 0; round < kBatchRounds; ++round) {
      std::vector<std::size_t> picks(3);
      std::vector<PointD> block;
      for (auto& pick : picks) {
        pick = qrng.below(query_pool.size());
        block.push_back(query_pool[pick]);
      }
      BatchQueryResult results = service.query_batch(block);
      for (std::size_t i = 0; i < picks.size(); ++i) {
        recorded[kQueryThreads].push_back(
            Recorded{picks[i], std::move(results.per_query[i])});
      }
    }
  });

  inserter.join();
  eraser.join();
  for (auto& thread : readers) thread.join();
  stop_compacting.store(true);
  compactor.join();

  const auto live_at = [&](std::uint64_t epoch) -> const std::vector<PointId>& {
    std::size_t best = 0;
    for (std::size_t i = 0; i < history.size(); ++i) {
      if (history[i].first <= epoch) best = i;
    }
    return history[best].second;
  };
  std::size_t verified = 0;
  for (std::size_t t = 0; t < recorded.size(); ++t) {
    for (const Recorded& rec : recorded[t]) {
      ASSERT_NO_FATAL_FAILURE(expect_same_keys(
          member_oracle(shadow, live_at(rec.result.epoch), query_pool[rec.query_index], kEll),
          rec.result.keys,
          "reader " + std::to_string(t) + " epoch " + std::to_string(rec.result.epoch)));
      EXPECT_TRUE(rec.result.coverage.complete());
      ++verified;
    }
  }
  EXPECT_EQ(verified, kQueryThreads * kQueriesPerThread + kBatchRounds * 3);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, verified);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

TEST(ServiceConcurrency, FaultTolerantReadersSurviveKillRecoverChurn) {
  constexpr std::size_t kDim = 2;
  constexpr std::uint64_t kEll = 4;
  constexpr std::uint32_t kMachines = 3;
  constexpr std::size_t kQueryThreads = 2;
  constexpr std::size_t kQueriesPerThread = 40;
  constexpr std::size_t kBatchRounds = 20;
  constexpr int kInserts = 120;
  constexpr int kErases = 70;
  constexpr int kChaosCycles = 10;

  Rng rng(81);
  KnnService service = KnnServiceBuilder()
                           .machines(kMachines)
                           .ell(kEll)
                           .metric(kKind)
                           .seed(15)
                           .dim(kDim)
                           .live()
                           .fault_tolerant()
                           .coalesce(4)
                           .cache_capacity(64)
                           .build();

  std::unordered_map<PointId, PointD> shadow;
  // Per-machine membership after every membership change, keyed by the
  // published epoch.  Kill/revive change neither membership nor the data
  // epoch (the eraser's alive-only rule keeps revive erase-free), so they
  // record nothing; recovery re-shards, so it does.
  std::vector<std::pair<std::uint64_t, std::vector<std::vector<PointId>>>> history;
  std::vector<bool> alive(kMachines, true);
  std::vector<bool> retired(kMachines, false);
  std::mutex test_mutex;  // mutators + chaos only — readers never touch it

  const auto snapshot_membership = [&] {
    std::vector<std::vector<PointId>> members(kMachines);
    for (std::size_t m = 0; m < kMachines; ++m) {
      if (!retired[m]) members[m] = service.live_ids_on(m);
    }
    return members;
  };

  {
    const std::lock_guard<std::mutex> lock(test_mutex);
    Rng seed_rng(82);
    for (PointId id = 1; id <= 36; ++id) {
      const PointD p = uniform_points(1, kDim, 50.0, seed_rng)[0];
      shadow.emplace(id, p);
      const std::uint64_t epoch = service.insert(p, id);
      if (id == 36) history.emplace_back(epoch, snapshot_membership());
    }
  }
  const auto query_pool = uniform_points(12, kDim, 50.0, rng);

  std::thread inserter([&] {
    Rng irng(83);
    PointId next_id = 2000;
    for (int step = 0; step < kInserts; ++step) {
      const PointD p = uniform_points(1, kDim, 50.0, irng)[0];
      const std::lock_guard<std::mutex> lock(test_mutex);
      const PointId id = next_id++;
      shadow.emplace(id, p);
      const std::uint64_t epoch = service.insert(p, id);
      history.emplace_back(epoch, snapshot_membership());
    }
  });
  std::thread eraser([&] {
    Rng erng(84);
    for (int step = 0; step < kErases; ++step) {
      const std::lock_guard<std::mutex> lock(test_mutex);
      // Victims come from ALIVE machines only (see the file comment).
      std::vector<PointId> candidates;
      for (std::size_t m = 0; m < kMachines; ++m) {
        if (!alive[m] || retired[m]) continue;
        const auto ids = service.live_ids_on(m);
        candidates.insert(candidates.end(), ids.begin(), ids.end());
      }
      if (candidates.size() < 8) continue;
      const PointId victim = candidates[erng.below(candidates.size())];
      const std::optional<std::uint64_t> epoch = service.erase(victim);
      ASSERT_TRUE(epoch.has_value());
      history.emplace_back(*epoch, snapshot_membership());
    }
  });
  std::thread chaos([&] {
    Rng crng(85);
    int recoveries = 0;
    for (int cycle = 0; cycle < kChaosCycles; ++cycle) {
      std::size_t victim = kMachines;
      {
        const std::lock_guard<std::mutex> lock(test_mutex);
        std::vector<std::size_t> up;
        for (std::size_t m = 0; m < kMachines; ++m) {
          if (alive[m] && !retired[m]) up.push_back(m);
        }
        if (up.size() < 2) break;  // never strand the writers
        victim = up[crng.below(up.size())];
        service.kill_machine(victim);
        alive[victim] = false;
      }
      std::this_thread::yield();  // let readers see the degraded world
      {
        const std::lock_guard<std::mutex> lock(test_mutex);
        (void)service.compact_now();  // epoch churn between the flips
        if (recoveries < 1 && crng.below(100) < 30) {
          (void)service.recover_machine(victim);
          retired[victim] = true;
          alive[victim] = true;
          history.emplace_back(service.snapshot_epoch(), snapshot_membership());
          ++recoveries;
        } else {
          service.revive_machine(victim);
          alive[victim] = true;
        }
      }
    }
  });

  struct Recorded {
    std::size_t query_index = 0;
    QueryResult result;
  };
  std::vector<std::vector<Recorded>> recorded(kQueryThreads + 1);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng qrng(8500 + t);
      for (std::size_t i = 0; i < kQueriesPerThread; ++i) {
        const std::size_t pick = qrng.below(query_pool.size());
        recorded[t].push_back(Recorded{pick, service.query(query_pool[pick])});
      }
    });
  }
  readers.emplace_back([&] {
    Rng qrng(8600);
    for (std::size_t round = 0; round < kBatchRounds; ++round) {
      std::vector<std::size_t> picks(2);
      std::vector<PointD> block;
      for (auto& pick : picks) {
        pick = qrng.below(query_pool.size());
        block.push_back(query_pool[pick]);
      }
      BatchQueryResult results = service.query_batch(block);
      for (std::size_t i = 0; i < picks.size(); ++i) {
        recorded[kQueryThreads].push_back(
            Recorded{picks[i], std::move(results.per_query[i])});
      }
    }
  });

  inserter.join();
  eraser.join();
  chaos.join();
  for (auto& thread : readers) thread.join();

  const auto membership_at =
      [&](std::uint64_t epoch) -> const std::vector<std::vector<PointId>>& {
    std::size_t best = 0;
    for (std::size_t i = 0; i < history.size(); ++i) {
      if (history[i].first <= epoch) best = i;
    }
    return history[best].second;
  };
  std::size_t verified = 0;
  for (std::size_t t = 0; t < recorded.size(); ++t) {
    for (const Recorded& rec : recorded[t]) {
      // The answer is exact over exactly the machines its own coverage
      // says answered, at its own epoch.
      const auto& members = membership_at(rec.result.epoch);
      std::vector<PointId> covered;
      for (std::size_t m = 0; m < kMachines; ++m) {
        const auto& missing = rec.result.coverage.missing;
        if (std::find(missing.begin(), missing.end(), static_cast<std::uint32_t>(m)) !=
            missing.end()) {
          continue;
        }
        covered.insert(covered.end(), members[m].begin(), members[m].end());
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_keys(
          member_oracle(shadow, covered, query_pool[rec.query_index], kEll), rec.result.keys,
          "reader " + std::to_string(t) + " epoch " + std::to_string(rec.result.epoch)));
      ++verified;
    }
  }
  EXPECT_EQ(verified, kQueryThreads * kQueriesPerThread + kBatchRounds * 2);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, verified);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

}  // namespace
}  // namespace dknn
