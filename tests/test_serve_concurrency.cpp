// Concurrency tests for the live serving subsystem — the races TSan exists
// for: a writer thread inserting/erasing/sealing, background compaction on
// the work-stealing pool, and several query threads scoring published
// snapshots, all against one SegmentStore.  Correctness is still exact:
// every recorded answer is verified (post-join, serially) against a
// FlatStore rebuilt from the live set at the answer's snapshot epoch —
// epochs make "which state did this query see?" a well-posed question
// even under full concurrency.  The facade's coalescing seat has its own
// suite (tests/test_service_concurrency.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.hpp"
#include "data/kernels.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "serve/compactor.hpp"
#include "serve/segment_store.hpp"
#include "sim/thread_pool.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;

struct LivePoint {
  PointId id = 0;
  PointD point;
};

std::vector<Key> oracle_top_ell(const std::vector<LivePoint>& live, const PointD& query,
                                std::size_t ell, MetricKind kind) {
  std::vector<PointD> points;
  std::vector<PointId> ids;
  for (const LivePoint& lp : live) {
    points.push_back(lp.point);
    ids.push_back(lp.id);
  }
  const FlatStore store(points, ids);
  return fused_top_ell(store, query, ell, kind);
}

/// Membership history: (epoch, live set) after every membership-changing
/// mutation.  Seal and compaction publish epochs too but never change
/// membership, so the live set at epoch E is the entry with the greatest
/// recorded epoch ≤ E.
struct History {
  std::vector<std::pair<std::uint64_t, std::vector<LivePoint>>> entries;

  [[nodiscard]] const std::vector<LivePoint>& at(std::uint64_t epoch) const {
    std::size_t best = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].first <= epoch) best = i;
    }
    return entries[best].second;
  }
};

TEST(ServeConcurrency, WritersCompactionAndBatchedQueriesRaceSafely) {
  constexpr std::size_t kDim = 3;
  constexpr std::size_t kEll = 6;
  constexpr std::size_t kQueryThreads = 4;
  constexpr std::size_t kQueriesPerThread = 60;
  constexpr int kMutations = 250;

  Rng rng(4242);
  SegmentStore store(kDim, ServeConfig{.seal_threshold = 32, .policy = ScoringPolicy::Auto});
  std::vector<LivePoint> live;
  for (PointId id = 1; id <= 64; ++id) {
    LivePoint lp{id, uniform_points(1, kDim, 50.0, rng)[0]};
    store.insert(lp.point, lp.id);
    live.push_back(std::move(lp));
  }
  History history;
  history.entries.emplace_back(store.epoch(), live);

  ThreadPool pool(2);
  Compactor compactor(store, pool,
                      CompactionConfig{.max_dead_fraction = 0.15, .min_segment_points = 24});

  // A fixed pool of query points shared by all threads.
  const auto query_pool = uniform_points(24, kDim, 50.0, rng);

  std::thread writer([&] {
    Rng wrng(99);
    PointId next_id = 1000;
    for (int step = 0; step < kMutations; ++step) {
      const std::uint64_t op = wrng.below(100);
      if (op < 50 || live.empty()) {
        LivePoint lp{next_id++, uniform_points(1, kDim, 50.0, wrng)[0]};
        const std::uint64_t epoch = store.insert(lp.point, lp.id);
        live.push_back(lp);
        history.entries.emplace_back(epoch, live);
      } else if (op < 85) {
        const std::size_t victim = wrng.below(live.size());
        const auto epoch = store.erase(live[victim].id);
        EXPECT_TRUE(epoch.has_value());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        history.entries.emplace_back(*epoch, live);
      } else if (op < 92) {
        store.seal();
      } else {
        compactor.maybe_schedule();  // install lands whenever the pool gets to it
      }
    }
  });

  struct Recorded {
    std::size_t query_index = 0;
    std::uint64_t epoch = 0;
    std::vector<Key> keys;
  };
  std::vector<std::vector<Recorded>> recorded(kQueryThreads);
  std::vector<std::thread> query_threads;
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    query_threads.emplace_back([&, t] {
      Rng qrng(7000 + t);
      for (std::size_t i = 0; i < kQueriesPerThread; ++i) {
        const std::size_t pick = qrng.below(query_pool.size());
        const SnapshotPtr snapshot = store.snapshot();
        recorded[t].push_back(
            Recorded{pick, snapshot->epoch,
                     snapshot_top_ell(*snapshot, query_pool[pick], kEll, MetricKind::Euclidean)});
      }
    });
  }
  writer.join();
  for (auto& thread : query_threads) thread.join();
  compactor.drain();

  // Post-join verification: every answer must be byte-identical to the
  // oracle at its snapshot's epoch.
  std::size_t verified = 0;
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    for (const Recorded& rec : recorded[t]) {
      const auto& live_then = history.at(rec.epoch);
      ASSERT_NO_FATAL_FAILURE(expect_same_keys(
          oracle_top_ell(live_then, query_pool[rec.query_index], kEll, MetricKind::Euclidean),
          rec.keys, "thread " + std::to_string(t) + " epoch " + std::to_string(rec.epoch)));
      ++verified;
    }
  }
  EXPECT_EQ(verified, kQueryThreads * kQueriesPerThread);
}

TEST(ServeConcurrency, HeldSnapshotIsStableWhileWritersChurn) {
  constexpr std::size_t kDim = 2;
  Rng rng(31);
  SegmentStore store(kDim, ServeConfig{.seal_threshold = 16});
  for (PointId id = 1; id <= 48; ++id) {
    store.insert(uniform_points(1, kDim, 50.0, rng)[0], id);
  }
  const SnapshotPtr held = store.snapshot();
  const PointD query = uniform_points(1, kDim, 50.0, rng)[0];
  const auto reference = snapshot_top_ell(*held, query, 8, MetricKind::Euclidean);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng wrng(32);
    PointId next_id = 100;
    while (!stop.load()) {
      store.insert(uniform_points(1, kDim, 50.0, wrng)[0], next_id++);
      (void)store.erase(1 + wrng.below(next_id - 1));
    }
  });
  // Re-score the held snapshot repeatedly while the writer churns: frozen
  // means frozen — every pass returns the same bytes.
  for (int pass = 0; pass < 200; ++pass) {
    const auto again = snapshot_top_ell(*held, query, 8, MetricKind::Euclidean);
    ASSERT_EQ(again.size(), reference.size()) << "pass " << pass;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(again[i].rank, reference[i].rank) << "pass " << pass;
      ASSERT_EQ(again[i].id, reference[i].id) << "pass " << pass;
    }
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace dknn
