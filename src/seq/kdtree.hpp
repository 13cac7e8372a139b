#pragma once
/// \file kdtree.hpp
/// \brief The range-leaf k-d tree behind the kd-hybrid local scoring path
///        (Bentley [2]; Friedman, Bentley & Finkel [6]).
///
/// The paper's related work discusses k-d trees at length: they accelerate
/// *local computation* but cannot reduce round complexity in the k-machine
/// model (§1.4).  `KdRangeIndex` is used exactly in that role — a machine
/// builds one over its shard or sealed segment (a ShardIndex, see
/// serve/segment_store.hpp) and `hybrid_top_ell_batch` answers its local
/// top-ℓ by pruning subtrees and scanning the surviving leaves with the
/// fused kernels.
///
/// Keys are byte-identical to a brute scan under every MetricKind, with the
/// same random-unique-id tie-breaking as every other component.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "data/flat_store.hpp"
#include "data/kernels.hpp"
#include "data/key.hpp"
#include "data/point.hpp"

namespace dknn {

/// Cumulative kd-hybrid traversal counters — the measured pruning behavior
/// behind every `tree` scoring path.  Accumulated per KdRangeIndex across
/// hybrid_top_ell_batch calls (relaxed atomics: concurrent query tiles
/// over one shard add without tearing), surfaced per shard set via
/// `tree_stats(indexes)`, per live store via `SegmentStore::tree_stats()`,
/// and per service via `ServiceStats::tree`.  This is the signal the
/// `tree_pays_off` calibration table is derived from (bench_scenarios'
/// `calibration` stanza, see bench/README.md): a routing choice is good
/// exactly when points_scored / (queries · n) is small.
struct TreeStats {
  std::uint64_t queries = 0;         ///< traversals run
  std::uint64_t nodes_visited = 0;   ///< nodes whose box bound was tested
  std::uint64_t subtrees_pruned = 0; ///< bound tests that cut a whole subtree
  std::uint64_t leaves_scored = 0;   ///< leaves handed to the fused kernel
  /// Rows those leaves contained.  A traversal prunes against the running
  /// selection's threshold, which stores fed before this one may already
  /// have tightened, so this depends on the order a snapshot's segments
  /// are fed in (the largest first).
  std::uint64_t points_scored = 0;

  TreeStats& operator+=(const TreeStats& other) {
    queries += other.queries;
    nodes_visited += other.nodes_visited;
    subtrees_pruned += other.subtrees_pruned;
    leaves_scored += other.leaves_scored;
    points_scored += other.points_scored;
    return *this;
  }

  /// Fraction of the resident rows the kernels actually scanned:
  /// points_scored / (queries · n).  1.0 when nothing pruned, 0 when no
  /// traversal ran.
  [[nodiscard]] double scan_fraction(std::size_t n) const {
    if (queries == 0 || n == 0) return 0.0;
    return static_cast<double>(points_scored) /
           (static_cast<double>(queries) * static_cast<double>(n));
  }
};

/// Range-leaf kd-tree over a FlatStore — the tree half of the hybrid local
/// scoring mode (PANDA's prune-then-partition structure, see PAPERS.md).
///
/// Construction reorders the shard so every tree node covers a *contiguous
/// index range* of the rebuilt SoA store; internal nodes carry bounding
/// boxes and a median split (axis = widest extent, deterministic id
/// tie-break), leaves hold up to `leaf_size` points.  A query traversal
/// prunes whole subtrees against the running top-ℓ bound and hands each
/// surviving leaf range to the fused SoA kernel (data/kernels.hpp's
/// RangeTopEll), so the scan cost drops toward the tree-pruned point count
/// while the per-point arithmetic stays the vectorized column kernel.
class KdRangeIndex {
 public:
  /// Points per leaf.  One of the kernels' 256-point tiles: small enough
  /// to prune meaningfully, large enough that the column kernel still
  /// amortizes its setup over each surviving leaf.
  static constexpr std::size_t kDefaultLeafSize = 256;

  /// Builds the reordered store + tree; O(n·d·log(n/leaf_size)).
  /// `ids[i]` labels `points[i]`; all points must share one dimension ≥ 1
  /// (an empty input builds an empty index) and be finite
  /// (NonFiniteCoordinateError otherwise).
  KdRangeIndex(std::span<const PointD> points, std::span<const PointId> ids,
               std::size_t leaf_size = kDefaultLeafSize);

  /// The tree-ordered SoA mirror of the construction input.  Node ranges
  /// index into this store; brute-force scans of it select the same keys as
  /// scans of the original order (selection is order-blind).
  [[nodiscard]] const FlatStore& store() const { return store_; }

  [[nodiscard]] std::size_t size() const { return store_.size(); }
  [[nodiscard]] std::size_t dim() const { return store_.dim(); }
  [[nodiscard]] bool empty() const { return store_.empty(); }
  [[nodiscard]] std::size_t leaf_size() const { return leaf_size_; }

  struct Node {
    std::size_t lo = 0, hi = 0;           ///< store index range [lo, hi)
    std::int32_t left = -1, right = -1;   ///< node indices; leaf iff left < 0
    std::uint32_t axis = 0;               ///< split axis (internal nodes)
    double split = 0.0;                   ///< near-side routing value
  };

  /// Preorder nodes; index 0 is the root when non-empty.
  [[nodiscard]] std::span<const Node> nodes() const { return nodes_; }

  /// Bounding box of node `i`: dim() lower / upper coordinates.
  [[nodiscard]] std::span<const double> box_lo(std::size_t i) const {
    return {box_lo_.data() + i * store_.dim(), store_.dim()};
  }
  [[nodiscard]] std::span<const double> box_hi(std::size_t i) const {
    return {box_hi_.data() + i * store_.dim(), store_.dim()};
  }

  /// Snapshot of the cumulative traversal counters (see TreeStats).
  [[nodiscard]] TreeStats stats() const {
    TreeStats out;
    out.queries = stat_queries_.load(std::memory_order_relaxed);
    out.nodes_visited = stat_nodes_.load(std::memory_order_relaxed);
    out.subtrees_pruned = stat_pruned_.load(std::memory_order_relaxed);
    out.leaves_scored = stat_leaves_.load(std::memory_order_relaxed);
    out.points_scored = stat_points_.load(std::memory_order_relaxed);
    return out;
  }

  /// Zeroes the counters (per-stanza deltas in the benches).
  void reset_stats() const {
    stat_queries_.store(0, std::memory_order_relaxed);
    stat_nodes_.store(0, std::memory_order_relaxed);
    stat_pruned_.store(0, std::memory_order_relaxed);
    stat_leaves_.store(0, std::memory_order_relaxed);
    stat_points_.store(0, std::memory_order_relaxed);
  }

  /// One batch's worth of counters, added with relaxed atomics (called by
  /// hybrid_top_ell_batch once per call, not per node).
  void add_stats(const TreeStats& delta) const {
    stat_queries_.fetch_add(delta.queries, std::memory_order_relaxed);
    stat_nodes_.fetch_add(delta.nodes_visited, std::memory_order_relaxed);
    stat_pruned_.fetch_add(delta.subtrees_pruned, std::memory_order_relaxed);
    stat_leaves_.fetch_add(delta.leaves_scored, std::memory_order_relaxed);
    stat_points_.fetch_add(delta.points_scored, std::memory_order_relaxed);
  }

 private:
  std::int32_t build(std::span<const PointD> points, std::span<const PointId> ids,
                     std::vector<std::size_t>& order, std::size_t lo, std::size_t hi);

  FlatStore store_;
  std::vector<Node> nodes_;
  std::vector<double> box_lo_, box_hi_;  ///< nodes × dim, aligned with nodes_
  std::size_t leaf_size_ = kDefaultLeafSize;
  // Traversal counters (mutable: queries are const; atomic: concurrent
  // query tiles share one index).  Counting never changes an answer byte.
  mutable std::atomic<std::uint64_t> stat_queries_{0};
  mutable std::atomic<std::uint64_t> stat_nodes_{0};
  mutable std::atomic<std::uint64_t> stat_pruned_{0};
  mutable std::atomic<std::uint64_t> stat_leaves_{0};
  mutable std::atomic<std::uint64_t> stat_points_{0};
};

/// Tree-pruned feed into the running selection `scratch` holds
/// (data/kernels.hpp), query q of `queries` into heap q: per query,
/// descend `index`, skip subtrees whose conservative raw-domain box bound
/// exceeds the heap's current rejection threshold, and feed surviving leaf
/// ranges through a RangeTopEll view of the heap.  The box bound folds
/// per-dimension gaps in the exact accumulation order of the kernels, so
/// (by monotonicity of rounding) it never exceeds any covered point's raw
/// score — pruning is lossless, and the heaps end as feeding every row of
/// index.store() would leave them (fuzzed in tests/test_parity.cpp).  A
/// threshold carried in from stores fed earlier prunes from the root on,
/// so TreeStats::points_scored depends on which stores a selection fed
/// before this one.  `dead` is an optional tombstone map aligned with
/// index.store() rows, as in fused_feed_batch: dead rows never enter a
/// heap, and the boxes still bound every row they cover, so pruning stays
/// lossless.
void hybrid_feed_batch(const KdRangeIndex& index, std::span<const PointD> queries,
                       MetricKind kind, KernelScratch& scratch,
                       const std::uint8_t* dead = nullptr);

/// Tree-pruned batched scoring: begin_top_ell, hybrid_feed_batch,
/// finish_top_ell.  Byte-identical to fused_top_ell_batch over
/// index.store().
void hybrid_top_ell_batch(const KdRangeIndex& index, std::span<const PointD> queries,
                          std::size_t ell, MetricKind kind,
                          std::vector<std::vector<Key>>& out, KernelScratch& scratch,
                          const std::uint8_t* dead = nullptr);

}  // namespace dknn
