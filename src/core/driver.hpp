#pragma once
/// \file driver.hpp
/// \brief One-call runners: wire a sharded dataset into an Engine, execute a
///        distributed algorithm on every machine, and assemble the global
///        answer plus the run's cost report.
///
/// These free functions are the *decomposed stages* beneath the KnnService
/// facade (core/knn_service.hpp) — application code should usually hold a
/// KnnService and let it own the shards, indexes, pool and cache; reach
/// for a stage directly when you need exactly one step.  The facade is
/// byte-identical to composing these yourself (fuzzed in
/// tests/test_service.cpp), so the two surfaces never fork:
///
///   auto ds = make_scalar_shards(values, k, PartitionScheme::RoundRobin, rng);
///   auto scored = score_scalar_shards(ds, query);
///   auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_config, {});
///
/// Batched serving path (many queries against one resident dataset) —
/// build each shard's scoring structures once (SoA FlatStore, plus a
/// kd-tree when the ScoringPolicy picks the hybrid), score the whole query
/// block with the fused kernels (per query and shard only the local top-ℓ
/// keys are ever materialized), and run every query through one engine so
/// setup cost amortizes:
///
///   auto shards  = make_vector_shards(points, k, PartitionScheme::RoundRobin, rng);
///   auto indexes = make_shard_indexes(shards, ScoringPolicy::Auto);   // once
///   auto scored  = score_vector_shards_batch(indexes, queries, ell,
///                      MetricKind::SquaredEuclidean, {.threads = 0});  // pool
///   auto batch   = run_knn_batch(scored, ell, KnnAlgo::DistKnn, engine_config);
///   // batch.per_query[q].keys == run_knn(...) on query q's scores
///
/// Scoring parallelism (BatchScoringConfig::threads) and protocol-side
/// parallelism (EngineConfig::parallel for run_knn / run_knn_batch) both
/// ride the work-stealing pool in sim/thread_pool.hpp; neither changes a
/// single output byte (tests/test_parity.cpp fuzzes this).
///
/// Everything below is deterministic given (dataset, seeds, config).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dist_knn.hpp"
#include "core/dist_select.hpp"
#include "data/generators.hpp"
#include "data/ids.hpp"
#include "data/kernels.hpp"
#include "data/key.hpp"
#include "data/metric.hpp"
#include "data/partition.hpp"
#include "data/point.hpp"
#include "fault/health.hpp"
#include "seq/kdtree.hpp"
#include "seq/scoring_policy.hpp"  // IWYU pragma: export — ScoringPolicy lived here
#include "serve/segment_store.hpp"  // IWYU pragma: export — ShardIndex lived here
#include "sim/engine.hpp"
#include "sim/thread_pool.hpp"

namespace dknn {

/// One machine's share of a scalar dataset (paper §3 setting).
struct ScalarShard {
  std::vector<Value> values;
  std::vector<PointId> ids;  ///< unique tie-breaking ids, aligned with values
};

/// One machine's share of a d-dimensional dataset.
struct VectorShard {
  std::vector<PointD> points;
  std::vector<PointId> ids;
};

/// Shards `values` over k machines and assigns globally unique random ids.
[[nodiscard]] std::vector<ScalarShard> make_scalar_shards(std::vector<Value> values,
                                                          std::uint32_t k,
                                                          PartitionScheme scheme, Rng& rng);

/// Shards `points` over k machines and assigns globally unique random ids.
[[nodiscard]] std::vector<VectorShard> make_vector_shards(std::vector<PointD> points,
                                                          std::uint32_t k,
                                                          PartitionScheme scheme, Rng& rng);

/// Where each input point landed after sharding: placement[i] = (machine,
/// row) of points[i].
using ShardPlacement = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// As above, additionally reporting each point's destination.  This is the
/// hook that lets positional metadata (labels, targets) follow points
/// through a randomized partition without coordinate-matching hacks — the
/// KnnServiceBuilder uses it to route flat label/target arrays to the
/// right machine.  Consumes the same rng stream as the plain overload, so
/// both produce byte-identical shards for equal seeds.
[[nodiscard]] std::vector<VectorShard> make_vector_shards(std::vector<PointD> points,
                                                          std::uint32_t k,
                                                          PartitionScheme scheme, Rng& rng,
                                                          ShardPlacement& placement);

/// Scores one scalar shard against a query: keys are (|v − q|, id).
[[nodiscard]] std::vector<Key> score_scalar_shard(const ScalarShard& shard, Value query);

/// Scores all shards (the per-machine local computation before any
/// distributed algorithm runs).
[[nodiscard]] std::vector<std::vector<Key>> score_scalar_shards(
    const std::vector<ScalarShard>& shards, Value query);

/// Hamming-space scoring (paper §1: "commonly used metrics include
/// Euclidean distance or Hamming distance"): shard values are 64-bit
/// patterns, distance = popcount(v XOR query).  Distances lie in [0, 64],
/// so ties are everywhere — the unique-id tie-breaking does all the work.
[[nodiscard]] std::vector<Key> score_hamming_shard(const ScalarShard& shard, Value query);
[[nodiscard]] std::vector<std::vector<Key>> score_hamming_shards(
    const std::vector<ScalarShard>& shards, Value query);

/// Applies the paper's footnote-4 distance scaling to pre-scored shards:
/// clears the low `drop_bits` of every rank (ids untouched).  See
/// quantize_rank in data/key.hpp for the approximation guarantee.
[[nodiscard]] std::vector<std::vector<Key>> quantize_scored_shards(
    std::vector<std::vector<Key>> shards, unsigned drop_bits);

/// Scores a vector shard under any metric.
template <MetricFor M>
[[nodiscard]] std::vector<Key> score_vector_shard(const VectorShard& shard, const PointD& query,
                                                  const M& metric) {
  std::vector<Key> keys;
  keys.reserve(shard.points.size());
  for (std::size_t i = 0; i < shard.points.size(); ++i) {
    keys.push_back(Key{encode_distance(metric(shard.points[i], query)), shard.ids[i]});
  }
  return keys;
}

template <MetricFor M>
[[nodiscard]] std::vector<std::vector<Key>> score_vector_shards(
    const std::vector<VectorShard>& shards, const PointD& query, const M& metric) {
  std::vector<std::vector<Key>> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(score_vector_shard(shard, query, metric));
  return out;
}

/// Default scoring: SquaredEuclidean.  The algorithms only compare
/// distances, and ‖·‖₂² induces the same ℓ-NN order as ‖·‖₂ while dropping
/// the per-point sqrt from the hot loop (identical selected ids,
/// test-asserted in tests/test_kernels.cpp).
[[nodiscard]] inline std::vector<Key> score_vector_shard(const VectorShard& shard,
                                                         const PointD& query) {
  return score_vector_shard(shard, query, SquaredEuclidean{});
}
[[nodiscard]] inline std::vector<std::vector<Key>> score_vector_shards(
    const std::vector<VectorShard>& shards, const PointD& query) {
  return score_vector_shards(shards, query, SquaredEuclidean{});
}

/// Builds each shard's scoring structures (ShardIndex, see
/// serve/segment_store.hpp) once per resident dataset.  `ann` supplies the
/// graph knobs for ScoringPolicy::Approx (ignored otherwise).
[[nodiscard]] std::vector<ShardIndex> make_shard_indexes(
    const std::vector<VectorShard>& shards, ScoringPolicy policy,
    std::size_t leaf_size = KdRangeIndex::kDefaultLeafSize, const ann::AnnConfig& ann = {});

/// Cumulative kd-hybrid traversal counters summed over every tree-indexed
/// shard (brute shards contribute nothing).  Counters accumulate across
/// score_vector_shards_batch calls; difference two reads for per-stanza
/// deltas.
[[nodiscard]] TreeStats tree_stats(const std::vector<ShardIndex>& indexes);

/// Execution knobs for the policy-aware batched scoring step.
struct BatchScoringConfig {
  /// Worker threads: 1 = serial in the calling thread (no pool), 0 =
  /// hardware concurrency, else exactly that many.  Ignored when `pool`
  /// is set.
  std::size_t threads = 1;
  /// Queries per task tile; 0 = auto (targets ~4 tasks per worker so
  /// work stealing can rebalance uneven shards).
  std::size_t query_block = 0;
  /// Seed for the pool's victim-selection streams (reproducibility only —
  /// results are schedule-independent by construction).  Ignored when
  /// `pool` is set.
  std::uint64_t seed = ThreadPool::kDefaultSeed;
  /// Externally-owned pool to score on, amortizing thread spawn across
  /// batches in a serving loop.  The call waits only for its own tiles (a
  /// ThreadPool::TaskGroup), so other threads — concurrent scoring calls,
  /// background compactions — may share the pool.
  ThreadPool* pool = nullptr;
  /// Point-range subtile threshold for the parallel grid.  A brute-scanned
  /// shard with more rows than this is scored as ⌈rows/threshold⌉
  /// independent row ranges whose per-range top-ℓ lists merge into the
  /// shard's slot — so one giant shard no longer serializes its column
  /// scans on a single worker.  0 = auto (64 Ki rows).  Merging changes no
  /// output byte (keys are globally distinct and each range's top-ℓ
  /// contains every global winner inside it — fuzzed against the unsplit
  /// grid in tests/test_parity.cpp).  A serve snapshot splits when its
  /// live points all sit in one clean, tree-less segment; the serial path,
  /// tree-indexed shards and approx-routed graph shards stay whole (column
  /// streaming / hierarchical traversal / one beam search).
  std::size_t shard_split_rows = 0;
  /// Approximate routing (the ANN tier).  UNLIKE every other knob in this
  /// struct, this one changes answer bytes: shards / serve segments that
  /// carry a k-NN graph (ScoringPolicy::Approx builds) are beam-searched
  /// and exact-reranked instead of exactly scanned — recall@ℓ semantics,
  /// see src/ann/README.md.  Graph-less shards (including every delta
  /// mirror and anything below AnnConfig::min_points) still score exactly,
  /// so with no Approx structures built this flag is a no-op.  Approx
  /// shards are never range-split (the graph walk is one unit of work).
  bool approx = false;
};

/// Batched local computation: scores every query against every shard and
/// returns [query][shard] → that shard's local top-ℓ keys ascending.
/// Feeding a machine its local top-ℓ instead of all n keys leaves every
/// algorithm's answer unchanged (Algorithm 2's first step is exactly this
/// local cap) — property-tested for all metrics.  Tiles the
/// shard × query-block grid over a work-stealing pool; every task writes
/// its own pre-sized [query][shard] slots, so the output is byte-identical
/// to the serial brute path regardless of policy, thread count, or
/// schedule (fuzzed across paths in tests/test_parity.cpp).
[[nodiscard]] std::vector<std::vector<std::vector<Key>>> score_vector_shards_batch(
    const std::vector<ShardIndex>& indexes, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind = MetricKind::SquaredEuclidean, const BatchScoringConfig& config = {});

/// Serve-aware batched local scoring: machine m's resident dataset is the
/// live set behind `snapshots[m]` (a SegmentStore frozen view — see
/// src/serve/segment_store.hpp).  Same [query][machine] → local top-ℓ
/// shape, tiling and pool semantics as the ShardIndex overload, so the
/// result feeds run_knn_batch / run_knn unchanged; per machine the keys
/// are byte-identical to scoring a FlatStore rebuilt from that machine's
/// live set (fuzzed in tests/test_serve.cpp).  All snapshots with live
/// points must share the query dimension.
[[nodiscard]] std::vector<std::vector<std::vector<Key>>> score_serve_snapshots_batch(
    std::span<const SnapshotPtr> snapshots, std::span<const PointD> queries,
    std::uint64_t ell, MetricKind kind = MetricKind::SquaredEuclidean,
    const BatchScoringConfig& config = {});

/// A guarded scoring step's output: the scored grid plus which machines
/// actually answered.
struct GuardedScoreBatch {
  /// [query][machine] → local top-ℓ keys; a skipped (dead / timed-out)
  /// machine's slot is empty for every query, which every selection
  /// protocol already treats as a legal empty shard.
  std::vector<std::vector<std::vector<Key>>> scored;
  Coverage coverage;
};

/// Deadline-guarded variant of the snapshot overload: before scoring
/// machine m, `health.check_call(m)` runs the bounded retry-with-backoff
/// probe; a machine that is Dead or exhausts its deadline is skipped (its
/// slots stay empty) and lands in `coverage.missing`, so the step degrades
/// instead of hanging.  With every machine healthy the scored grid is
/// byte-identical to the unguarded overload (asserted in
/// tests/test_fault.cpp) — both run one body.  A null `snapshots[m]`
/// marks machine m unreachable in the *caller's* view (it could not
/// snapshot the store — e.g. the machine was dead when the caller's
/// service snapshot was published): the machine is skipped and reported
/// missing whatever the health gate answers now (revived or recovered
/// since).  A Retired machine is skipped silently when its slot holds no
/// points — pass an empty snapshot for a machine whose data already lives
/// on survivors in the caller's view — and reported missing when its slot
/// still holds points (it was recovered after that view was taken).
[[nodiscard]] GuardedScoreBatch score_serve_snapshots_batch_guarded(
    std::span<const SnapshotPtr> snapshots, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind, MachineHealth& health, const BatchScoringConfig& config = {});

/// Which distributed ℓ-NN / selection algorithm to run.
enum class KnnAlgo : std::uint8_t {
  DistKnn,      ///< the paper's Algorithm 2 (sampling + Algorithm 1)
  CappedSelect, ///< the paper's §2.2 intermediate: Algorithm 1 directly on
                ///< the kℓ locally-capped points, no sampling — O(log ℓ +
                ///< log k) rounds (the log k the sampling step removes)
  Simple,       ///< the paper's experimental baseline (gather everything)
  SaukasSong,   ///< deterministic weighted-median selection [16]
  BinSearch,    ///< binary search over the distance domain [3, 18]
};

[[nodiscard]] const char* knn_algo_name(KnnAlgo algo);

/// Global result of one distributed run.
struct GlobalRunResult {
  /// The selected keys, globally merged and ascending; size = min(ℓ, n).
  std::vector<Key> keys;
  /// Engine cost report (rounds, messages, bits, compute).
  RunReport report;
  /// Pivot / median / probe iterations of the algorithm's driver loop (0
  /// when Algorithm 2 ended at its finish, see dist_knn.hpp).
  std::uint32_t iterations = 0;
  /// Algorithm 2 only: sampling attempts, post-prune candidate total (after
  /// the finish: the keys at or below the final bound), whether pruning
  /// preserved the answer.
  std::uint32_t attempts = 1;
  std::uint64_t candidates = 0;
  bool prune_ok = true;
};

/// Runs `algo` over pre-scored shards (shards.size() machines; shard i is
/// machine i's local input).  `ell` is the paper's ℓ.
[[nodiscard]] GlobalRunResult run_knn(const std::vector<std::vector<Key>>& scored_shards,
                                      std::uint64_t ell, KnnAlgo algo,
                                      const EngineConfig& engine_config,
                                      const KnnConfig& knn_config = {});

/// Outcome of a batched multi-query run.
struct BatchRunResult {
  /// Per-query results in query order.  Each element's `keys`,
  /// `iterations`, `attempts`, `candidates`, `prune_ok` are as run_knn
  /// would return for that query alone; its `report` carries only that
  /// query's round count (traffic/compute are whole-batch, below): the
  /// rounds from the one after the last machine finished the previous
  /// query through the last round any machine spent on this one, i.e.
  /// F(q) − F(q − 1) with F(q) the latest round any machine finished q and
  /// F(−1) = −1.  Query 0 (and a one-query batch) thus counts what run_knn
  /// counts for it alone, and the counts sum to `report.rounds`.  One batch
  /// runner drives run_knn, run_knn_batch, run_selection, the
  /// classify/regress entries and the sessions, so this is also the
  /// sessions' rule (session.hpp); a session's election ends F(−1).
  std::vector<GlobalRunResult> per_query;
  /// Whole-batch engine report: one engine, B queries — setup, scheduling
  /// and warm-up amortize across the batch.
  RunReport report;
};

/// Runs `algo` over a pre-scored query batch (`scored_batch[q][m]` =
/// machine m's keys for query q, e.g. from score_vector_shards_batch) in a
/// single engine run.  All queries must agree on the shard count.
[[nodiscard]] BatchRunResult run_knn_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch, std::uint64_t ell,
    KnnAlgo algo, const EngineConfig& engine_config, const KnnConfig& knn_config = {});

/// Runs plain distributed selection (Algorithm 1) over raw key shards —
/// the ℓ-smallest-points problem of §2.1.
[[nodiscard]] GlobalRunResult run_selection(const std::vector<std::vector<Key>>& key_shards,
                                            std::uint64_t ell,
                                            const EngineConfig& engine_config,
                                            const SelectConfig& select_config = {});

/// Reference answer: the min(ℓ, n) smallest keys across all shards.
[[nodiscard]] std::vector<Key> expected_smallest(const std::vector<std::vector<Key>>& shards,
                                                 std::uint64_t ell);

/// Distributed quantiles — the paper's §1.2 framing ("the ℓ-nearest
/// neighbors problem really boils down to the selection problem") as a
/// first-class API: the φ-quantile of n distributed keys is the
/// ⌈φ·n⌉-th smallest, found by Algorithm 1 in O(log n) rounds.
struct QuantileResult {
  Key value{};                ///< the φ-quantile key
  std::uint64_t rank = 0;     ///< its 1-based rank (= ⌈φ·n⌉)
  std::uint64_t total = 0;    ///< n
  GlobalRunResult run;        ///< cost report (run.keys holds the ℓ prefix)
};

/// φ ∈ (0, 1]; requires at least one key across the shards.
[[nodiscard]] QuantileResult run_quantile(const std::vector<std::vector<Key>>& key_shards,
                                          double phi, const EngineConfig& engine_config,
                                          const SelectConfig& select_config = {});

/// Median = 0.5-quantile (lower median).
[[nodiscard]] inline QuantileResult run_median(const std::vector<std::vector<Key>>& key_shards,
                                               const EngineConfig& engine_config,
                                               const SelectConfig& select_config = {}) {
  return run_quantile(key_shards, 0.5, engine_config, select_config);
}

}  // namespace dknn
