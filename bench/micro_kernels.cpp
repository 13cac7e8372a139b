// E6 — google-benchmark micro kernels backing §3's "local computation"
// discussion: the per-machine work that the k-machine model treats as free
// but that dominates real wall-clock (the paper's own observation about
// why speedup grows with machine count).
//
// Kernels:
//   * local top-ℓ: bounded heap vs nth_element vs full sort
//   * k-d tree build + query vs brute-force scan (related work [2, 6, 14])
//   * scoring (distance computation) throughput — AoS per-query vs the SoA
//     FlatStore kernels, materialized vs fused top-ℓ (data/kernels.hpp)
//   * serialization and RNG throughput (the simulator's own hot paths)
//
// This binary carries its own main: with --json=PATH it first times the
// canonical serving workload (100k points, d=8, ℓ=64, 32-query block) on
// the AoS per-query path, the fused SoA batch path, the work-stealing
// parallel batch path (threads recorded in the workload stanza — the
// parallel-vs-serial ratio only means something at 4+ hardware threads),
// and the kd-tree/FlatStore hybrid, then the fused batch path at one
// offline shard's shape (8,000 points of perfbench's d=64 Gaussian
// mixture, ℓ=32, 64-query block; best and median of 101 calls), as drawn
// and shifted by +1e4 in every coordinate, then the roofline stanza (the
// core's measured clock and its throughput of independent sub/mul/add and
// FMA chains, with the offline shard's best rate against both), then
// single queries over the online workload's machines (16 Auto segments of
// 4,096 rows, d=8, ℓ=16) with 0, 64 and 512 tombstones per segment, then
// the same machines segmented as the online run holds them (a bulk kd-tree
// segment with 64 tombstones, three sealed 32-row segments and a 16-row
// delta each; best and median of 21 passes of 256 queries), then
// the simulated message plane (Algorithm 2 selection runs at the online
// and offline shapes, and an empty engine run, with heap allocations
// counted by a replaced global operator new), and writes the medians to
// PATH — the machine-readable perf trajectory (BENCH_kernels.json) the
// ROADMAP tracks.  Without the flag it is a plain google-benchmark binary.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/knn_service.hpp"
#include "data/flat_store.hpp"
#include "data/simd/dispatch.hpp"
#include "data/generators.hpp"
#include "data/ids.hpp"
#include "data/kernels.hpp"
#include "data/key.hpp"
#include "data/metric.hpp"
#include "rng/rng.hpp"
#include "rng/sampling.hpp"
#include "seq/brute.hpp"
#include "seq/kdtree.hpp"
#include "seq/select.hpp"
#include "serial/codec.hpp"
#include "serve/segment_store.hpp"
#include "sim/engine.hpp"
#include "support/timer.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace {
/// Every heap allocation the process makes through operator new (the
/// message_plane stanza reads differences of it around one run).
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair the inlined free() with operator new
// and warn about a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dknn;

std::vector<Key> make_keys(std::size_t n) {
  Rng rng(42);
  std::vector<Key> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(Key{rng.next_u64() >> 16, i + 1});
  return keys;
}

void BM_TopEll_Heap(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  const auto ell = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto out = top_ell_smallest(std::span<const Key>(keys), ell);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopEll_Heap)->Args({1 << 16, 16})->Args({1 << 16, 1024})->Args({1 << 20, 1024});

void BM_TopEll_NthElement(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  const auto ell = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto copy = keys;
    std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(ell), copy.end());
    copy.resize(ell);
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopEll_NthElement)->Args({1 << 16, 16})->Args({1 << 16, 1024})->Args({1 << 20, 1024});

void BM_TopEll_FullSort(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  const auto ell = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto copy = keys;
    std::sort(copy.begin(), copy.end());
    copy.resize(ell);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopEll_FullSort)->Args({1 << 16, 1024});

void BM_Quickselect(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    auto out = quickselect(keys, keys.size() / 2, rng);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Quickselect)->Arg(1 << 16)->Arg(1 << 20);

void BM_MomSelect(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = mom_select(keys, keys.size() / 2);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MomSelect)->Arg(1 << 16)->Arg(1 << 20);

void BM_ScoreScalar(benchmark::State& state) {
  Rng rng(1);
  const auto values = uniform_u64(static_cast<std::size_t>(state.range(0)), rng);
  const auto ids = assign_random_ids(values.size(), rng);
  for (auto _ : state) {
    std::vector<Key> keys;
    keys.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      keys.push_back(Key{scalar_distance(values[i], 123456789), ids[i]});
    }
    benchmark::DoNotOptimize(keys);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScoreScalar)->Arg(1 << 16)->Arg(1 << 20);

void BM_ScoreEuclidean(benchmark::State& state) {
  Rng rng(2);
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto points = uniform_points(static_cast<std::size_t>(state.range(0)), dim, 100.0, rng);
  const auto ids = assign_random_ids(points.size(), rng);
  const PointD query = uniform_points(1, dim, 100.0, rng)[0];
  const EuclideanMetric metric;
  for (auto _ : state) {
    std::vector<Key> keys;
    keys.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      keys.push_back(Key{encode_distance(metric(points[i], query)), ids[i]});
    }
    benchmark::DoNotOptimize(keys);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScoreEuclidean)->Args({1 << 14, 4})->Args({1 << 14, 32});

// --- AoS vs SoA, materialized vs fused --------------------------------------

/// One machine's shard in both layouts, plus a query block.
struct ScoringFixture {
  VectorShard shard;
  FlatStore store;
  std::vector<PointD> queries;
};

ScoringFixture make_scoring_fixture(std::size_t n, std::size_t dim, std::size_t num_queries) {
  Rng rng(8);
  ScoringFixture fx;
  fx.shard.points = uniform_points(n, dim, 100.0, rng);
  fx.shard.ids = assign_random_ids(n, rng);
  fx.store = FlatStore(fx.shard.points, fx.shard.ids);
  fx.queries = uniform_points(num_queries, dim, 100.0, rng);
  return fx;
}

/// The pre-existing per-query path: AoS scan materializing n keys, then a
/// separate top-ℓ pass.
void BM_AosPerQueryTopEll(benchmark::State& state) {
  const auto fx = make_scoring_fixture(static_cast<std::size_t>(state.range(0)),
                                       static_cast<std::size_t>(state.range(1)), 8);
  const auto ell = static_cast<std::size_t>(state.range(2));
  std::size_t q = 0;
  for (auto _ : state) {
    const auto scored =
        score_vector_shard(fx.shard, fx.queries[q++ % fx.queries.size()], EuclideanMetric{});
    auto best = top_ell_smallest(std::span<const Key>(scored), ell);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AosPerQueryTopEll)->Args({1 << 16, 8, 64})->Args({1 << 16, 32, 64});

/// SoA columns but still materializing all n keys before the top-ℓ pass.
void BM_SoaMaterializedTopEll(benchmark::State& state) {
  const auto fx = make_scoring_fixture(static_cast<std::size_t>(state.range(0)),
                                       static_cast<std::size_t>(state.range(1)), 8);
  const auto ell = static_cast<std::size_t>(state.range(2));
  std::vector<Key> scored;
  std::size_t q = 0;
  for (auto _ : state) {
    score_store(fx.store, fx.queries[q++ % fx.queries.size()], MetricKind::Euclidean, scored);
    auto best = top_ell_smallest(std::span<const Key>(scored), ell);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoaMaterializedTopEll)->Args({1 << 16, 8, 64})->Args({1 << 16, 32, 64});

/// Fused SoA kernel, one query at a time (no cross-query blocking).
void BM_SoaFusedTopEll(benchmark::State& state) {
  const auto fx = make_scoring_fixture(static_cast<std::size_t>(state.range(0)),
                                       static_cast<std::size_t>(state.range(1)), 8);
  const auto ell = static_cast<std::size_t>(state.range(2));
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  std::size_t q = 0;
  for (auto _ : state) {
    const PointD& query = fx.queries[q++ % fx.queries.size()];
    fused_top_ell_batch(fx.store, std::span<const PointD>(&query, 1), ell,
                        MetricKind::Euclidean, out, scratch);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoaFusedTopEll)->Args({1 << 16, 8, 64})->Args({1 << 16, 32, 64});

/// Fused SoA kernel over the whole query block (points stay cache-hot
/// across queries).  Items processed counts point-visits: n per query.
void BM_SoaFusedTopEllBatch(benchmark::State& state) {
  const auto num_queries = static_cast<std::size_t>(state.range(3));
  const auto fx = make_scoring_fixture(static_cast<std::size_t>(state.range(0)),
                                       static_cast<std::size_t>(state.range(1)), num_queries);
  const auto ell = static_cast<std::size_t>(state.range(2));
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  for (auto _ : state) {
    fused_top_ell_batch(fx.store, fx.queries, ell, MetricKind::Euclidean, out, scratch);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * static_cast<std::int64_t>(num_queries));
}
BENCHMARK(BM_SoaFusedTopEllBatch)->Args({1 << 16, 8, 64, 32})->Args({1 << 16, 32, 64, 32});

/// Fused batch with the kernel ISA pinned (arg 4: 0 = scalar, 1 = AVX2,
/// 2 = AVX-512) — the per-ISA rows behind BENCH_kernels.json.  Levels the
/// running CPU lacks are skipped with an error note rather than measured
/// as a silent fallback.
void BM_SoaFusedTopEllBatchIsa(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(4));
  if (!simd::isa_supported(isa)) {
    state.SkipWithError("ISA not supported by this build/CPU");
    return;
  }
  const auto num_queries = static_cast<std::size_t>(state.range(3));
  const auto fx = make_scoring_fixture(static_cast<std::size_t>(state.range(0)),
                                       static_cast<std::size_t>(state.range(1)), num_queries);
  const auto ell = static_cast<std::size_t>(state.range(2));
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  {
    const simd::ScopedForceIsa pin(isa);
    for (auto _ : state) {
      fused_top_ell_batch(fx.store, fx.queries, ell, MetricKind::Euclidean, out, scratch);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(state.iterations() * state.range(0) * static_cast<std::int64_t>(num_queries));
}
BENCHMARK(BM_SoaFusedTopEllBatchIsa)
    ->Args({1 << 16, 8, 64, 32, 0})
    ->Args({1 << 16, 8, 64, 32, 1})
    ->Args({1 << 16, 8, 64, 32, 2});

/// Whole query block tiled over the work-stealing pool (hardware threads,
/// query_block 4).  Compare against BM_SoaFusedTopEllBatch for the
/// parallel-vs-serial scaling row; output bytes are identical.
void BM_SoaFusedTopEllBatchParallel(benchmark::State& state) {
  const auto num_queries = static_cast<std::size_t>(state.range(3));
  const auto fx = make_scoring_fixture(static_cast<std::size_t>(state.range(0)),
                                       static_cast<std::size_t>(state.range(1)), num_queries);
  const auto ell = static_cast<std::uint64_t>(state.range(2));
  const auto indexes = make_shard_indexes({fx.shard}, ScoringPolicy::Brute);
  ThreadPool pool;  // persistent across iterations: measure scoring, not spawn
  BatchScoringConfig config{.query_block = 4};
  config.pool = &pool;
  for (auto _ : state) {
    auto out = score_vector_shards_batch(indexes, fx.queries, ell, MetricKind::Euclidean, config);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * static_cast<std::int64_t>(num_queries));
}
BENCHMARK(BM_SoaFusedTopEllBatchParallel)->Args({1 << 16, 8, 64, 32});

/// kd-tree prune + fused kernel on surviving leaves, serial, whole block.
/// Compare against BM_SoaFusedTopEllBatch for the hybrid-vs-brute row.
void BM_HybridTopEllBatch(benchmark::State& state) {
  const auto num_queries = static_cast<std::size_t>(state.range(3));
  const auto fx = make_scoring_fixture(static_cast<std::size_t>(state.range(0)),
                                       static_cast<std::size_t>(state.range(1)), num_queries);
  const auto ell = static_cast<std::size_t>(state.range(2));
  const KdRangeIndex index(fx.shard.points, fx.shard.ids);
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  for (auto _ : state) {
    hybrid_top_ell_batch(index, fx.queries, ell, MetricKind::Euclidean, out, scratch);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * static_cast<std::int64_t>(num_queries));
}
BENCHMARK(BM_HybridTopEllBatch)->Args({1 << 16, 8, 64, 32})->Args({1 << 16, 3, 64, 32});

/// Range-leaf kd-tree build (reordered SoA store + boxes).
void BM_KdRangeIndexBuild(benchmark::State& state) {
  Rng rng(3);
  const auto points = uniform_points(static_cast<std::size_t>(state.range(0)), 3, 100.0, rng);
  const auto ids = assign_random_ids(points.size(), rng);
  for (auto _ : state) {
    KdRangeIndex index(points, ids);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdRangeIndexBuild)->Arg(1 << 12)->Arg(1 << 16);

/// One query at a time through the kd-hybrid, Euclidean — the tree's row
/// beside BM_BruteForceQuery at the same sizes.
void BM_HybridSingleQuery(benchmark::State& state) {
  Rng rng(4);
  const auto points = uniform_points(static_cast<std::size_t>(state.range(0)), 3, 100.0, rng);
  const auto ids = assign_random_ids(points.size(), rng);
  const KdRangeIndex index(points, ids);
  const auto queries = uniform_points(64, 3, 100.0, rng);
  const auto ell = static_cast<std::size_t>(state.range(1));
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  std::size_t q = 0;
  for (auto _ : state) {
    hybrid_top_ell_batch(index, std::span<const PointD>(&queries[q++ % queries.size()], 1), ell,
                         MetricKind::Euclidean, out, scratch);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HybridSingleQuery)->Args({1 << 16, 8})->Args({1 << 16, 256});

void BM_BruteForceQuery(benchmark::State& state) {
  Rng rng(5);
  const auto points = uniform_points(static_cast<std::size_t>(state.range(0)), 3, 100.0, rng);
  const auto ids = assign_random_ids(points.size(), rng);
  const auto queries = uniform_points(64, 3, 100.0, rng);
  const auto ell = static_cast<std::size_t>(state.range(1));
  std::size_t q = 0;
  for (auto _ : state) {
    auto out = brute_force_knn(std::span<const PointD>(points), ids,
                               queries[q++ % queries.size()], EuclideanMetric{}, ell);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BruteForceQuery)->Args({1 << 16, 8})->Args({1 << 16, 256});

void BM_SerializeKeys(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto bytes = to_bytes(keys);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 16);
}
BENCHMARK(BM_SerializeKeys)->Arg(1 << 10)->Arg(1 << 16);

void BM_DeserializeKeys(benchmark::State& state) {
  const auto bytes = to_bytes(make_keys(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto keys = from_bytes<std::vector<Key>>(bytes);
    benchmark::DoNotOptimize(keys);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 16);
}
BENCHMARK(BM_DeserializeKeys)->Arg(1 << 10)->Arg(1 << 16);

void BM_RngBounded(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000003));
  }
}
BENCHMARK(BM_RngBounded);

void BM_SampleWithoutReplacement(benchmark::State& state) {
  Rng rng(7);
  const auto population = static_cast<std::size_t>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto out = sample_indices_without_replacement(population, count, rng);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SampleWithoutReplacement)->Args({1 << 20, 64})->Args({1 << 20, 4096});

// --- BENCH_kernels.json emission --------------------------------------------

struct PathTiming {
  double median_ms = 0.0;
  double best_ms = 0.0;  ///< the least disturbed call on a shared host
  double ns_per_point = 0.0;
  double queries_per_sec = 0.0;
};

/// Runs `body` (which processes the whole query block once) `repeats`
/// times and derives per-point / per-query figures from the median.
template <typename Body>
PathTiming time_path(std::size_t repeats, std::size_t points, std::size_t num_queries,
                     Body&& body) {
  std::vector<double> ms;
  ms.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    WallTimer timer;
    body();
    ms.push_back(ns_to_ms(timer.elapsed_ns()));
  }
  std::sort(ms.begin(), ms.end());
  PathTiming t;
  t.median_ms = ms[ms.size() / 2];
  t.best_ms = ms.front();
  t.ns_per_point = t.median_ms * 1e6 / static_cast<double>(points * num_queries);
  t.queries_per_sec = static_cast<double>(num_queries) / (t.median_ms * 1e-3);
  return t;
}

/// A path row; nullopt timing = recorded-as-skipped (emitted as JSON null,
/// e.g. the parallel row on a <4-thread box).
using PathRow = std::pair<std::string, std::optional<PathTiming>>;

void write_path(std::FILE* f, const PathRow& row, bool trailing_comma) {
  if (row.second.has_value()) {
    std::fprintf(f,
                 "    \"%s\": {\"median_ms\": %.3f, \"ns_per_point\": %.3f, "
                 "\"queries_per_sec\": %.1f}%s\n",
                 row.first.c_str(), row.second->median_ms, row.second->ns_per_point,
                 row.second->queries_per_sec, trailing_comma ? "," : "");
  } else {
    std::fprintf(f, "    \"%s\": null%s\n", row.first.c_str(), trailing_comma ? "," : "");
  }
}

// --- roofline: the core's measured clock and vector throughput ------------

/// Seconds `body` takes, best of three (the least disturbed run on a
/// shared host).
template <typename Body>
double best_seconds(Body&& body) {
  double best = 1e30;
  for (int r = 0; r < 3; ++r) {
    const WallTimer timer;
    body();
    best = std::min(best, timer.elapsed_sec());
  }
  return best;
}

/// The core clock, measured rather than assumed: a chain of dependent
/// register-register integer adds retires one per cycle on every x86-64
/// core, so its rate is the clock the vector loops below ran at.  (An
/// add-immediate chain would not do: newer cores fold those at rename.)
/// 0 off x86-64.
double measured_clock_hz() {
#if defined(__x86_64__)
  constexpr long kIters = 50'000'000;  // 8 adds each
  const double seconds = best_seconds([] {
    long x = 0;
    const long one = 1;
    for (long i = 0; i < kIters; ++i) {
      __asm__ volatile(
          "add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\t"
          "add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\tadd %1, %0"
          : "+r"(x)
          : "r"(one));
    }
  });
  return 8.0 * kIters / seconds;
#else
  return 0.0;
#endif
}

/// Iterations of each throughput loop below, and its independent chains:
/// six groups of three (one sub, one mul and one add chain each, or three
/// FMA chains) cover a 4-cycle latency on two ports with registers to
/// spare.
constexpr long kChainIters = 4'000'000;
constexpr int kChains = 18;

#if defined(__x86_64__)
/// The chains are spelled out as named locals: GCC keeps an array of this
/// many vectors in memory and stores every element each iteration, which
/// would time the store port instead.
#define DKNN_CHAIN_GROUPS(X) X(0) X(1) X(2) X(3) X(4) X(5)

/// kChains independent chains run kChainIters steps: a third each of sub,
/// mul and add (the exact kernel's ops, never fused), or all FMA, for the
/// vector type and intrinsics that VEC, SET1, SUB, MUL, ADD and FMADD name
/// at the expansion.  Each returns a lane-0 sum so the chains are live;
/// the timing stays outside, because a lambda inside a target function
/// does not inherit its target.
#define DKNN_ROOFLINE_LOOPS(SUFFIX, TARGET)                 \
  __attribute__((target(TARGET))) double sub_mul_add_chains_##SUFFIX() { \
    const VEC c = SET1(1e-9);                                \
    const VEC m = SET1(0.9999999999);                        \
    DKNN_CHAIN_GROUPS(DKNN_DECLARE)                          \
    for (long i = 0; i < kChainIters; ++i) {                 \
      DKNN_CHAIN_GROUPS(DKNN_SUB_MUL_ADD)                    \
    }                                                        \
    double sum = 0.0;                                        \
    DKNN_CHAIN_GROUPS(DKNN_SUM)                              \
    return sum;                                              \
  }                                                          \
  __attribute__((target(TARGET))) double fma_chains_##SUFFIX() { \
    const VEC c = SET1(1e-9);                                \
    const VEC m = SET1(0.9999999999);                        \
    DKNN_CHAIN_GROUPS(DKNN_DECLARE)                          \
    for (long i = 0; i < kChainIters; ++i) {                 \
      DKNN_CHAIN_GROUPS(DKNN_FMA3)                           \
    }                                                        \
    double sum = 0.0;                                        \
    DKNN_CHAIN_GROUPS(DKNN_SUM)                              \
    return sum;                                              \
  }
// Distinct starting values: GCC merges chains that provably stay equal.
#define DKNN_DECLARE(k) \
  VEC x##k = SET1(1.0 + 3 * k), y##k = SET1(2.0 + 3 * k), z##k = SET1(3.0 + 3 * k);
#define DKNN_SUB_MUL_ADD(k) \
  x##k = SUB(x##k, c);      \
  y##k = MUL(y##k, m);      \
  z##k = ADD(z##k, c);
#define DKNN_FMA3(k)          \
  x##k = FMADD(x##k, m, c); \
  y##k = FMADD(y##k, m, c); \
  z##k = FMADD(z##k, m, c);
#define DKNN_SUM(k) sum += x##k[0] + y##k[0] + z##k[0];
#define VEC __m512d
#define SET1 _mm512_set1_pd
#define SUB _mm512_sub_pd
#define MUL _mm512_mul_pd
#define ADD _mm512_add_pd
#define FMADD _mm512_fmadd_pd
DKNN_ROOFLINE_LOOPS(avx512, "avx512f")
#undef VEC
#undef SET1
#undef SUB
#undef MUL
#undef ADD
#undef FMADD
#define VEC __m256d
#define SET1 _mm256_set1_pd
#define SUB _mm256_sub_pd
#define MUL _mm256_mul_pd
#define ADD _mm256_add_pd
#define FMADD _mm256_fmadd_pd
DKNN_ROOFLINE_LOOPS(avx2, "avx2,fma")
#undef VEC
#undef SET1
#undef SUB
#undef MUL
#undef ADD
#undef FMADD
#undef DKNN_SUM
#undef DKNN_FMA3
#undef DKNN_SUB_MUL_ADD
#undef DKNN_DECLARE
#undef DKNN_ROOFLINE_LOOPS
#undef DKNN_CHAIN_GROUPS

/// Vector ops per second of one chain loop above.
double chain_rate(double (*chains)()) {
  const double seconds = best_seconds([chains] { benchmark::DoNotOptimize(chains()); });
  return kChains * static_cast<double>(kChainIters) / seconds;
}
#endif

/// The dispatched ISA's throughput limits; empty for the scalar table (or off
/// x86-64), which has no explicit vector loops to measure.
struct Roofline {
  const char* isa = "scalar";
  std::size_t lanes = 0;         ///< doubles per vector
  double clock_ghz = 0.0;        ///< measured
  double sub_mul_add_ops = 0.0;  ///< vector ops per second
  double fma_ops = 0.0;          ///< vector FMAs per second
  [[nodiscard]] double sub_mul_add_gflops() const { return sub_mul_add_ops * lanes * 1e-9; }
  [[nodiscard]] double fma_gflops() const { return 2.0 * fma_ops * lanes * 1e-9; }
  [[nodiscard]] double per_cycle(double ops) const { return ops / (clock_ghz * 1e9); }
};

std::optional<Roofline> measure_roofline() {
  Roofline r;
  r.isa = simd::isa_name(simd::active_isa());
#if defined(__x86_64__)
  if (simd::active_isa() == simd::Isa::Avx512) {
    r.lanes = 8;
    r.sub_mul_add_ops = chain_rate(&sub_mul_add_chains_avx512);
    r.fma_ops = chain_rate(&fma_chains_avx512);
  } else if (simd::active_isa() == simd::Isa::Avx2) {
    r.lanes = 4;
    r.sub_mul_add_ops = chain_rate(&sub_mul_add_chains_avx2);
    r.fma_ops = chain_rate(&fma_chains_avx2);
  }
#endif
  if (r.lanes == 0) return std::nullopt;
  r.clock_ghz = measured_clock_hz() * 1e-9;
  return r;
}

constexpr std::size_t kSegments = 16;
constexpr std::size_t kSegmentRows = 4096;
constexpr std::size_t kSegmentDim = 8;
constexpr std::size_t kSegmentEll = 16;
constexpr std::size_t kSegmentQueries = 64;

struct TombstonedRow {
  std::size_t tombstones = 0;  ///< per segment
  PathTiming timing;           ///< the whole query set over every segment
  double tree_share = 0.0;     ///< segment queries that ran the kd-hybrid
};

struct TombstonedSegments {
  std::vector<TombstonedRow> rows;
  bool keys_match = true;  ///< every answer equals a clean rebuilt store's
};

/// Scores single queries against kSegments stores of one sealed Auto
/// segment each (the online workload's machine shape), erasing random rows
/// between rows of the stanza.  Tombstones mask dead rows out of the
/// heaps, so each dirty segment keeps the kd-hybrid; every answer is
/// checked against a clean store rebuilt from the segment's live rows.
TombstonedSegments time_tombstoned_segments(std::size_t repeats) {
  constexpr std::size_t kTombstoneCounts[] = {0, 64, 512};
  Rng rng(12);
  const ServeConfig config{.policy = ScoringPolicy::Auto};
  std::vector<std::unique_ptr<SegmentStore>> stores;
  std::vector<std::vector<PointD>> points;
  std::vector<std::vector<PointId>> ids;
  for (std::size_t s = 0; s < kSegments; ++s) {
    points.push_back(uniform_points(kSegmentRows, kSegmentDim, 2.0, rng));
    ids.emplace_back();
    for (std::size_t i = 0; i < kSegmentRows; ++i) ids.back().push_back(1 + s * kSegmentRows + i);
    stores.push_back(std::make_unique<SegmentStore>(kSegmentDim, points[s], ids[s], config));
  }
  const auto queries = uniform_points(kSegmentQueries, kSegmentDim, 2.0, rng);

  TombstonedSegments result;
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  for (const std::size_t tombstones : kTombstoneCounts) {
    std::vector<SnapshotPtr> snapshots;
    for (std::size_t s = 0; s < kSegments; ++s) {
      // Swap-remove random rows until the segment holds `tombstones` dead.
      while (points[s].size() > kSegmentRows - tombstones) {
        const std::size_t victim = rng.below(points[s].size());
        (void)stores[s]->erase(ids[s][victim]);
        points[s][victim] = points[s].back();
        ids[s][victim] = ids[s].back();
        points[s].pop_back();
        ids[s].pop_back();
      }
      snapshots.push_back(stores[s]->snapshot());
      stores[s]->reset_tree_stats();
    }
    TombstonedRow row;
    row.tombstones = tombstones;
    row.timing = time_path(repeats, kSegments * kSegmentRows, kSegmentQueries, [&] {
      for (const PointD& query : queries) {
        for (const SnapshotPtr& snapshot : snapshots) {
          snapshot_top_ell_batch(*snapshot, std::span<const PointD>(&query, 1), kSegmentEll,
                                 MetricKind::SquaredEuclidean, out, scratch);
          benchmark::DoNotOptimize(out);
        }
      }
    });
    std::uint64_t tree_queries = 0;
    for (const auto& store : stores) tree_queries += store->tree_stats().queries;
    row.tree_share = static_cast<double>(tree_queries) /
                     static_cast<double>(repeats * kSegments * kSegmentQueries);
    for (std::size_t s = 0; s < kSegments; ++s) {
      const SegmentStore rebuilt(kSegmentDim, points[s], ids[s], config);
      for (const PointD& query : queries) {
        result.keys_match =
            result.keys_match &&
            snapshot_top_ell(*snapshots[s], query, kSegmentEll, MetricKind::SquaredEuclidean) ==
                snapshot_top_ell(*rebuilt.snapshot(), query, kSegmentEll,
                                 MetricKind::SquaredEuclidean);
      }
    }
    result.rows.push_back(row);
  }
  return result;
}

constexpr std::size_t kSnapshotSealThreshold = 32;
constexpr std::size_t kSnapshotInserts = 112;  // three sealed 32-row segments and a 16-row delta
constexpr std::size_t kSnapshotErases = 64;    // from the bulk segment
constexpr std::size_t kSnapshotQueries = 256;
constexpr std::size_t kSnapshotRepeats = 21;

struct SegmentedSnapshots {
  PathTiming timing;                   ///< every query over every store's snapshot
  std::size_t segments_per_store = 0;  ///< the snapshot's segments, the delta included
  bool keys_match = true;              ///< every answer equals a brute scan of the live rows
};

/// Single queries over kSegments stores shaped like the online machine:
/// one bulk Auto segment of kSegmentRows (a kd-tree) with kSnapshotErases
/// tombstones, three sealed 32-row segments (brute) and a 16-row delta.
/// Every answer is checked against the fused kernel over a FlatStore
/// rebuilt from the store's live rows.
SegmentedSnapshots time_segmented_snapshots() {
  Rng rng(25);
  const ServeConfig config{.seal_threshold = kSnapshotSealThreshold,
                           .policy = ScoringPolicy::Auto};
  std::vector<std::unique_ptr<SegmentStore>> stores;
  std::vector<FlatStore> rebuilt;
  PointId next_id = 1;
  for (std::size_t s = 0; s < kSegments; ++s) {
    std::vector<PointD> points = uniform_points(kSegmentRows, kSegmentDim, 2.0, rng);
    std::vector<PointId> ids;
    for (std::size_t i = 0; i < kSegmentRows; ++i) ids.push_back(next_id++);
    auto store = std::make_unique<SegmentStore>(kSegmentDim, points, ids, config);
    for (std::size_t e = 0; e < kSnapshotErases; ++e) {
      const std::size_t victim = rng.below(points.size());
      (void)store->erase(ids[victim]);
      points[victim] = points.back();
      ids[victim] = ids.back();
      points.pop_back();
      ids.pop_back();
    }
    for (std::size_t i = 0; i < kSnapshotInserts; ++i) {
      points.push_back(uniform_points(1, kSegmentDim, 2.0, rng)[0]);
      ids.push_back(next_id++);
      store->insert(points.back(), ids.back());
    }
    rebuilt.emplace_back(points, ids);
    stores.push_back(std::move(store));
  }
  const auto queries = uniform_points(kSnapshotQueries, kSegmentDim, 2.0, rng);
  std::vector<SnapshotPtr> snapshots;
  for (const auto& store : stores) snapshots.push_back(store->snapshot());

  SegmentedSnapshots result;
  result.segments_per_store = snapshots.front()->segments.size();
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  result.timing = time_path(kSnapshotRepeats, kSegments * kSegmentRows, kSnapshotQueries, [&] {
    for (const PointD& query : queries) {
      for (const SnapshotPtr& snapshot : snapshots) {
        snapshot_top_ell_batch(*snapshot, std::span<const PointD>(&query, 1), kSegmentEll,
                               MetricKind::SquaredEuclidean, out, scratch);
        benchmark::DoNotOptimize(out);
      }
    }
  });
  for (std::size_t s = 0; s < kSegments; ++s) {
    result.keys_match = result.keys_match &&
                        snapshots[s]->segments.size() == result.segments_per_store;
    for (const PointD& query : queries) {
      result.keys_match =
          result.keys_match &&
          snapshot_top_ell(*snapshots[s], query, kSegmentEll, MetricKind::SquaredEuclidean) ==
              fused_top_ell(rebuilt[s], query, kSegmentEll, MetricKind::SquaredEuclidean);
    }
  }
  return result;
}

/// One message_plane row: a whole run of the simulated k-machine model.
struct PlaneRow {
  std::uint64_t messages = 0;     ///< per run
  std::uint64_t allocations = 0;  ///< per run (they repeat exactly)
  double us_per_run = 0.0;        ///< median over the repeats

  [[nodiscard]] double allocations_per_message() const {
    return static_cast<double>(allocations) / static_cast<double>(messages);
  }
};

/// Times `runs` back-to-back calls of `run` (which returns the run's
/// message count) per repeat, and counts one warmed-up run's allocations.
template <typename Run>
PlaneRow time_plane(std::size_t repeats, std::size_t runs, Run&& run) {
  (void)run();
  PlaneRow row;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  row.messages = run();
  row.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  const PathTiming timing = time_path(repeats, 1, runs, [&] {
    for (std::size_t r = 0; r < runs; ++r) benchmark::DoNotOptimize(run());
  });
  row.us_per_run = timing.median_ms * 1e3 / static_cast<double>(runs);
  return row;
}

/// `queries` × `machines` shards of `keys` ascending random keys each: what
/// local top-ℓ scoring hands Algorithm 2.
std::vector<std::vector<std::vector<Key>>> make_scored_batch(std::size_t queries,
                                                             std::size_t machines,
                                                             std::size_t keys, Rng& rng) {
  std::vector<std::vector<std::vector<Key>>> batch(queries);
  std::uint64_t next_id = 1;
  for (auto& shards : batch) {
    for (std::size_t m = 0; m < machines; ++m) {
      std::vector<Key> shard;
      for (std::size_t i = 0; i < keys; ++i) shard.push_back(Key{rng.next_u64() >> 16, next_id++});
      std::sort(shard.begin(), shard.end());
      shards.push_back(std::move(shard));
    }
  }
  return batch;
}

struct SelectionShape {
  std::size_t machines = 0;
  std::size_t ell = 0;
  std::size_t queries = 0;
};

constexpr SelectionShape kOnlineSelection{16, 16, 1};
constexpr SelectionShape kOfflineSelection{8, 32, 64};
constexpr std::uint32_t kEmptyRunMachines = 16;

PlaneRow time_selection(const SelectionShape& shape, std::size_t repeats, std::size_t runs,
                        Rng& rng) {
  const auto scored = make_scored_batch(shape.queries, shape.machines, shape.ell, rng);
  return time_plane(repeats, runs, [&] {
    const BatchRunResult batch = run_knn_batch(scored, shape.ell, KnnAlgo::DistKnn, EngineConfig{});
    return batch.report.traffic.messages_sent();
  });
}

void write_selection_row(std::FILE* f, const char* name, const SelectionShape& shape,
                         const PlaneRow& row) {
  std::fprintf(f,
               "    \"%s\": {\"machines\": %zu, \"ell\": %zu, \"queries\": %zu, "
               "\"messages\": %llu, \"us_per_run\": %.1f, \"us_per_message\": %.3f, "
               "\"allocations_per_run\": %llu, \"allocations_per_message\": %.2f},\n",
               name, shape.machines, shape.ell, shape.queries,
               static_cast<unsigned long long>(row.messages), row.us_per_run,
               row.us_per_run / static_cast<double>(row.messages),
               static_cast<unsigned long long>(row.allocations), row.allocations_per_message());
}

/// The canonical serving workload the ROADMAP's perf trajectory tracks.
int emit_bench_json(const std::string& path) {
  constexpr std::size_t kPoints = 100000;
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kEll = 64;
  constexpr std::size_t kQueries = 32;
  constexpr std::size_t kRepeats = 9;

  const auto fx = make_scoring_fixture(kPoints, kDim, kQueries);

  const PathTiming aos = time_path(kRepeats, kPoints, kQueries, [&] {
    for (const PointD& query : fx.queries) {
      const auto scored = score_vector_shard(fx.shard, query, EuclideanMetric{});
      auto best = top_ell_smallest(std::span<const Key>(scored), kEll);
      benchmark::DoNotOptimize(best);
    }
  });

  std::vector<Key> materialized;
  const PathTiming soa_mat = time_path(kRepeats, kPoints, kQueries, [&] {
    for (const PointD& query : fx.queries) {
      score_store(fx.store, query, MetricKind::Euclidean, materialized);
      auto best = top_ell_smallest(std::span<const Key>(materialized), kEll);
      benchmark::DoNotOptimize(best);
    }
  });

  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  // Dispatched fused row: whatever ISA the runtime CPUID dispatch picked.
  const PathTiming fused = time_path(kRepeats, kPoints, kQueries, [&] {
    fused_top_ell_batch(fx.store, fx.queries, kEll, MetricKind::Euclidean, out, scratch);
    benchmark::DoNotOptimize(out);
  });

  // Per-ISA rows: the same fused kernel pinned to each supported level.
  // The scalar row IS the PR 1 auto-vectorized kernel (relocated behind
  // the dispatch table) — the dispatched row is expected to beat it on
  // AVX2-capable hardware.
  std::vector<PathRow> isa_rows;
  std::optional<double> scalar_forced_ms;
  for (std::size_t level = 0; level < simd::kIsaCount; ++level) {
    const auto isa = static_cast<simd::Isa>(level);
    if (!simd::isa_supported(isa)) continue;
    const simd::ScopedForceIsa pin(isa);
    const PathTiming timing = time_path(kRepeats, kPoints, kQueries, [&] {
      fused_top_ell_batch(fx.store, fx.queries, kEll, MetricKind::Euclidean, out, scratch);
      benchmark::DoNotOptimize(out);
    });
    if (isa == simd::Isa::Scalar) scalar_forced_ms = timing.median_ms;
    isa_rows.emplace_back(std::string("soa_fused_batch_") + simd::isa_name(isa), timing);
  }

  // Parallel brute: the same fused kernels, shard × query-block tiles over
  // the work-stealing pool.  On fewer than 4 hardware threads the ratio
  // would measure pool overhead, not scaling (the ROADMAP's ≥2× target is
  // conditioned on 4+), so the row is recorded as explicitly skipped
  // (JSON null) instead of polluting the perf trajectory.
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::optional<PathTiming> parallel;
  if (threads >= 4) {
    const auto indexes = make_shard_indexes({fx.shard}, ScoringPolicy::Brute);
    ThreadPool pool;  // persistent, like a serving loop: spawn cost amortizes
    BatchScoringConfig par_config{.query_block = 4};
    par_config.pool = &pool;
    parallel = time_path(kRepeats, kPoints, kQueries, [&] {
      auto scored =
          score_vector_shards_batch(indexes, fx.queries, kEll, MetricKind::Euclidean, par_config);
      benchmark::DoNotOptimize(scored);
    });
  } else {
    std::printf("parallel row skipped: %zu hardware thread(s) < 4 — would measure pool "
                "overhead, not scaling\n",
                threads);
  }

  // kd-tree hybrid: prune against the running top-ℓ bound, fused kernel on
  // surviving leaf ranges, serial.
  const KdRangeIndex tree(fx.shard.points, fx.shard.ids);
  const PathTiming hybrid = time_path(kRepeats, kPoints, kQueries, [&] {
    hybrid_top_ell_batch(tree, fx.queries, kEll, MetricKind::Euclidean, out, scratch);
    benchmark::DoNotOptimize(out);
  });

  // Facade row: the canonical workload end to end through the KnnService
  // front door (one machine, cache off) — fused scoring *plus* the whole
  // Algorithm 2 engine run per batch, so the JSON tracks what the unified
  // API adds on top of the raw kernel rows.  Service built once outside
  // the timer, like any resident deployment.
  // Serial scoring pinned (threads = 1): the fused denominator below is
  // single-threaded, so the ratio must not compare parallel to serial.
  KnnService facade_service = KnnServiceBuilder()
                                  .ell(kEll)
                                  .metric(MetricKind::Euclidean)
                                  .policy(ScoringPolicy::Brute)
                                  .scoring(BatchScoringConfig{.threads = 1})
                                  .dataset_sharded({fx.shard})
                                  .build();
  const PathTiming facade = time_path(kRepeats, kPoints, kQueries, [&] {
    auto batch = facade_service.query_batch(fx.queries);
    benchmark::DoNotOptimize(batch);
  });

  // Offline-shard rows: one machine's shard of perfbench's
  // offline_classify_d64 workload (8,000 points of its 16-component
  // Gaussian mixture at d = 64, centres in ±10, spread 12; a 64-query block
  // drawn from the same mixture; ℓ = 32, squared Euclidean) through the
  // dispatched fused kernel, as drawn and shifted by +1e4 in every
  // coordinate.  The vector ISAs screen this shape with single-precision
  // lower bounds, so its cost depends on how many pairs survive: the rows
  // must draw the data they stand for.  At the offset ‖x‖² + ‖q‖² dwarfs
  // the distances, so only the screen's per-tile translation keeps it
  // rejecting.  This is the high-d shape where scoring dominates a query;
  // the d = 8 rows above guard the low-d side.  A call takes a few ms and
  // single calls drift by tens of percent on a shared host, so these rows
  // time kShardRepeats calls and report the best beside the median.
  constexpr std::size_t kShardPoints = 8000;
  constexpr std::size_t kShardDim = 64;
  constexpr std::size_t kShardEll = 32;
  constexpr std::size_t kShardQueries = 64;
  constexpr std::size_t kShardRepeats = 101;
  constexpr double kShardOffset = 1e4;
  Rng mixture_rng(8);
  const GaussianMixture mixture(ClusterSpec{kShardDim, 16, 10.0, 12.0}, mixture_rng);
  std::vector<PointD> shard_points;
  for (LabeledPoint& sample : mixture.sample(kShardPoints, mixture_rng)) {
    shard_points.push_back(std::move(sample.x));
  }
  const std::vector<PointId> shard_ids = assign_random_ids(kShardPoints, mixture_rng);
  std::vector<PointD> shard_queries;
  for (LabeledPoint& sample : mixture.sample(kShardQueries, mixture_rng)) {
    shard_queries.push_back(std::move(sample.x));
  }
  const auto shifted = [](std::vector<PointD> set) {
    for (PointD& p : set) {
      for (double& x : p.coords) x += kShardOffset;
    }
    return set;
  };
  const FlatStore shard_store(shard_points, shard_ids);
  const FlatStore offset_store(shifted(shard_points), shard_ids);
  const std::vector<PointD> offset_queries = shifted(shard_queries);
  const PathTiming shard = time_path(kShardRepeats, kShardPoints, kShardQueries, [&] {
    fused_top_ell_batch(shard_store, shard_queries, kShardEll, MetricKind::SquaredEuclidean, out,
                        scratch);
    benchmark::DoNotOptimize(out);
  });
  const PathTiming offset_shard = time_path(kShardRepeats, kShardPoints, kShardQueries, [&] {
    fused_top_ell_batch(offset_store, offset_queries, kShardEll, MetricKind::SquaredEuclidean,
                        out, scratch);
    benchmark::DoNotOptimize(out);
  });
  // The shard's rate in exact-kernel flops (sub, mul, add per point,
  // query and dimension), against the throughput limits measured above.
  const std::optional<Roofline> roofline = measure_roofline();
  const double shard_gflops = 3.0 * kShardPoints * kShardDim * kShardQueries /
                              (shard.best_ms * 1e-3) * 1e-9;

  // Tombstoned-segment rows: one query's local top-ℓ over every machine
  // of perfbench's online_churn_k16_d8 (16 machines, each holding one
  // 4,096-row d = 8 Auto segment, which builds a kd-tree; ℓ = 16; single
  // queries) with 0, 64 and 512 tombstones per segment.
  const TombstonedSegments tombstoned = time_tombstoned_segments(kRepeats);
  if (!tombstoned.keys_match) {
    std::fprintf(stderr, "tombstoned_segment: keys differ from the rebuilt clean stores\n");
    return 1;
  }

  // Segmented-snapshot rows: the same 16 machines as the online workload
  // holds them mid-run, each a bulk kd-tree segment with tombstones plus
  // small brute segments and a delta, one query at a time.
  const SegmentedSnapshots segmented = time_segmented_snapshots();
  if (!segmented.keys_match) {
    std::fprintf(stderr, "segmented_snapshot: keys differ from the rebuilt stores\n");
    return 1;
  }

  // Message-plane rows: Algorithm 2 over pre-scored keys (each machine
  // holds its local top-ℓ) at perfbench's online shape (k = 16, ℓ = 16,
  // one query) and offline shape (k = 8, ℓ = 32, one 64-query block), and
  // an empty k = 16 engine run (construction included) for the fixed cost.
  Rng plane_rng(19);
  const PlaneRow online_plane = time_selection(kOnlineSelection, kRepeats, 100, plane_rng);
  const PlaneRow offline_plane = time_selection(kOfflineSelection, kRepeats, 5, plane_rng);
  EngineConfig empty_config;
  empty_config.world_size = kEmptyRunMachines;
  const PlaneRow empty_plane = time_plane(kRepeats, 1000, [&] {
    Engine engine(empty_config);
    return engine.run([](Ctx&) -> Task<void> { co_return; }).traffic.messages_sent();
  });

  std::vector<PathRow> rows;
  rows.emplace_back("aos_per_query", aos);
  rows.emplace_back("soa_materialized", soa_mat);
  rows.emplace_back("soa_fused_batch", fused);
  for (const auto& row : isa_rows) rows.push_back(row);
  rows.emplace_back("soa_fused_batch_parallel", parallel);
  rows.emplace_back("kdtree_hybrid", hybrid);
  rows.emplace_back("facade_query_batch", facade);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f,
               "  \"workload\": {\"points\": %zu, \"dim\": %zu, \"ell\": %zu, "
               "\"queries\": %zu, \"metric\": \"euclidean\", \"repeats\": %zu, "
               "\"threads\": %zu, \"simd_isa\": \"%s\"},\n",
               kPoints, kDim, kEll, kQueries, kRepeats, threads,
               simd::isa_name(simd::active_isa()));
  std::fprintf(f, "  \"paths\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    write_path(f, rows[i], i + 1 < rows.size());
  }
  std::fprintf(f, "  },\n");
  const auto write_shard = [&](const char* name, const char* data, const PathTiming& t) {
    std::fprintf(f,
                 "  \"%s\": {\"points\": %zu, \"dim\": %zu, \"ell\": %zu, "
                 "\"queries\": %zu, \"metric\": \"squared-euclidean\", \"data\": \"%s\", "
                 "\"repeats\": %zu, \"soa_fused_batch\": {\"best_ms\": %.3f, \"median_ms\": %.3f, "
                 "\"ns_per_point\": %.3f, \"queries_per_sec\": %.1f}},\n",
                 name, kShardPoints, kShardDim, kShardEll, kShardQueries, data, kShardRepeats,
                 t.best_ms, t.median_ms, t.ns_per_point, t.queries_per_sec);
  };
  write_shard("offline_shard", "gaussian mixture: 16 centres in +-10, spread 12", shard);
  write_shard("offline_shard_offset",
              "the offline_shard points and queries plus 1e4 in every coordinate", offset_shard);
  if (roofline.has_value()) {
    const Roofline& r = *roofline;
    std::fprintf(f,
                 "  \"roofline\": {\"isa\": \"%s\", \"lanes\": %zu, \"chains\": %d, "
                 "\"clock_ghz\": %.3f, \"clock\": \"measured: dependent register adds\",\n"
                 "    \"sub_mul_add\": {\"gflops\": %.2f, \"vector_ops_per_cycle\": %.3f},\n"
                 "    \"fma\": {\"gflops\": %.2f, \"vector_ops_per_cycle\": %.3f},\n"
                 "    \"offline_shard\": {\"timing\": \"best_ms\", \"exact_equivalent_gflops\": %.2f, "
                 "\"share_of_sub_mul_add\": %.3f, \"share_of_fma\": %.3f}},\n",
                 r.isa, r.lanes, kChains, r.clock_ghz, r.sub_mul_add_gflops(),
                 r.per_cycle(r.sub_mul_add_ops), r.fma_gflops(), r.per_cycle(r.fma_ops),
                 shard_gflops, shard_gflops / r.sub_mul_add_gflops(),
                 shard_gflops / r.fma_gflops());
  } else {
    std::fprintf(f, "  \"roofline\": null,\n");
  }
  std::fprintf(f,
               "  \"tombstoned_segment\": {\"segments\": %zu, \"rows\": %zu, \"dim\": %zu, "
               "\"ell\": %zu, \"queries\": %zu, \"metric\": \"squared-euclidean\", "
               "\"policy\": \"auto\", \"keys_match_rebuilt\": true, \"tombstones\": {\n",
               kSegments, kSegmentRows, kSegmentDim, kSegmentEll, kSegmentQueries);
  for (std::size_t i = 0; i < tombstoned.rows.size(); ++i) {
    const TombstonedRow& row = tombstoned.rows[i];
    std::fprintf(f,
                 "    \"%zu\": {\"us_per_query\": %.1f, \"ns_per_row\": %.3f, "
                 "\"tree_share\": %.3f}%s\n",
                 row.tombstones, row.timing.median_ms * 1e3 / kSegmentQueries,
                 row.timing.ns_per_point, row.tree_share,
                 i + 1 < tombstoned.rows.size() ? "," : "");
  }
  std::fprintf(f, "  }},\n");
  std::fprintf(f,
               "  \"segmented_snapshot\": {\"stores\": %zu, \"bulk_rows\": %zu, \"dim\": %zu, "
               "\"ell\": %zu, \"queries\": %zu, \"metric\": \"squared-euclidean\", "
               "\"policy\": \"auto\", \"seal_threshold\": %zu, \"inserts\": %zu, "
               "\"erases\": %zu, \"segments_per_store\": %zu, \"repeats\": %zu, "
               "\"keys_match_rebuilt\": true, \"best_us_per_query\": %.1f, "
               "\"median_us_per_query\": %.1f},\n",
               kSegments, kSegmentRows, kSegmentDim, kSegmentEll, kSnapshotQueries,
               kSnapshotSealThreshold, kSnapshotInserts, kSnapshotErases,
               segmented.segments_per_store, kSnapshotRepeats,
               segmented.timing.best_ms * 1e3 / kSnapshotQueries,
               segmented.timing.median_ms * 1e3 / kSnapshotQueries);
  std::fprintf(f, "  \"message_plane\": {\"algo\": \"dist-knn\", \"bandwidth\": \"unlimited\",\n");
  write_selection_row(f, "online_run_knn_batch", kOnlineSelection, online_plane);
  write_selection_row(f, "offline_run_knn_batch", kOfflineSelection, offline_plane);
  std::fprintf(f,
               "    \"empty_engine_run\": {\"machines\": %u, \"us_per_run\": %.2f, "
               "\"allocations_per_run\": %llu}\n  },\n",
               kEmptyRunMachines, empty_plane.us_per_run,
               static_cast<unsigned long long>(empty_plane.allocations));
  std::fprintf(f, "  \"speedup_fused_vs_aos\": %.2f,\n", aos.median_ms / fused.median_ms);
  if (scalar_forced_ms.has_value()) {
    std::fprintf(f, "  \"speedup_simd_vs_scalar\": %.2f,\n", *scalar_forced_ms / fused.median_ms);
  } else {
    std::fprintf(f, "  \"speedup_simd_vs_scalar\": null,\n");
  }
  if (parallel.has_value()) {
    std::fprintf(f, "  \"speedup_parallel_vs_serial\": %.2f,\n",
                 fused.median_ms / parallel->median_ms);
  } else {
    std::fprintf(f, "  \"speedup_parallel_vs_serial\": null,\n");
  }
  std::fprintf(f, "  \"speedup_hybrid_vs_brute\": %.2f,\n", fused.median_ms / hybrid.median_ms);
  // Facade tax: end-to-end (scoring + selection protocol) over raw fused
  // scoring — the cost of the one-front-door API on the canonical block.
  std::fprintf(f, "  \"facade_overhead_vs_fused\": %.2f\n}\n", facade.median_ms / fused.median_ms);
  std::fclose(f);
  std::printf("wrote %s (aos %.2f ms, soa-materialized %.2f ms, soa-fused %.2f ms [%s]",
              path.c_str(), aos.median_ms, soa_mat.median_ms, fused.median_ms,
              simd::isa_name(simd::active_isa()));
  for (const auto& row : isa_rows) {
    std::printf(", %s %.2f ms", row.first.c_str(), row.second->median_ms);
  }
  if (parallel.has_value()) {
    std::printf(", parallel %.2f ms @%zu threads", parallel->median_ms, threads);
  } else {
    std::printf(", parallel skipped @%zu threads", threads);
  }
  std::printf(", hybrid %.2f ms; fused/aos %.2fx", hybrid.median_ms, aos.median_ms / fused.median_ms);
  if (scalar_forced_ms.has_value()) {
    std::printf(", simd/scalar %.2fx", *scalar_forced_ms / fused.median_ms);
  }
  std::printf(", hybrid/brute %.2fx", fused.median_ms / hybrid.median_ms);
  std::printf(", facade %.2f ms (%.2fx fused)", facade.median_ms, facade.median_ms / fused.median_ms);
  std::printf("; offline shard d=%zu best %.2f ms (median %.2f), offset best %.2f ms (median %.2f)",
              kShardDim, shard.best_ms, shard.median_ms, offset_shard.best_ms,
              offset_shard.median_ms);
  if (roofline.has_value()) {
    std::printf(" (%.1f exact-equivalent GFLOP/s; limits at %.2f GHz: sub/mul/add %.1f, FMA "
                "%.1f GFLOP/s)",
                shard_gflops, roofline->clock_ghz, roofline->sub_mul_add_gflops(),
                roofline->fma_gflops());
  }
  for (const TombstonedRow& row : tombstoned.rows) {
    std::printf("; %zu tombstones/segment %.1f us/query (tree share %.3f)", row.tombstones,
                row.timing.median_ms * 1e3 / kSegmentQueries, row.tree_share);
  }
  std::printf("; segmented snapshot (%zu segments/store) best %.1f us/query (median %.1f)",
              segmented.segments_per_store, segmented.timing.best_ms * 1e3 / kSnapshotQueries,
              segmented.timing.median_ms * 1e3 / kSnapshotQueries);
  std::printf("; message plane: online %.1f us/run (%.2f allocations/message), offline %.1f "
              "us/run (%.2f allocations/message), empty run %.2f us",
              online_plane.us_per_run, online_plane.allocations_per_message(),
              offline_plane.us_per_run, offline_plane.allocations_per_message(),
              empty_plane.us_per_run);
  std::printf(")\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own --json flag before handing the rest to google-benchmark.
  // JSON emission is opt-in so filtered benchmark runs don't pay the
  // canonical workload or clobber a checked-in BENCH_kernels.json.
  std::string json_path;
  bool emit_json = false;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      if (json_path.empty()) {
        std::fprintf(stderr, "--json= requires a path\n");
        return 1;
      }
      emit_json = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (emit_json) {
    if (const int rc = emit_bench_json(json_path); rc != 0) return rc;
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
