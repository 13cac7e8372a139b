#pragma once
/// \file kernels.hpp
/// \brief Fused batched scoring / top-ℓ kernels over FlatStore shards.
///
/// The per-query AoS path (`score_vector_shard` + `top_ell_smallest`)
/// materializes a full n-element `std::vector<Key>` per shard per query and
/// chases one heap pointer per point.  These kernels instead
///
///   * stream each coordinate *column* of a FlatStore contiguously
///     (vector lanes map to points),
///   * score each tile of points against the queries in blocks of up to
///     simd::kQueryBlock, loading each column vector once per block and
///     feeding it to one accumulator per query (independent add chains,
///     and one column pass per block instead of one per query), and
///   * fuse selection into scoring with a bounded max-heap per query, so
///     when ℓ ≪ n nothing of size n is ever allocated — with a reused
///     `KernelScratch`, the per-query hot path is allocation-free after
///     warm-up; the heaps are a running selection that any number of
///     stores (a snapshot's segments) feed before one sort, and
///   * for the Euclidean family at d > 16 on the vector ISAs, once every
///     heap of a query block is full, screen each later tile in two
///     stages: a single-precision lower bound per (query, point) from the
///     expanded form ‖x̃‖² + ‖q̃‖² − 2·x̃·q̃, over a float copy of the tile
///     translated by its column means (narrowed once per tile, with its
///     norms), then exact rescoring of only the pairs whose bound is not
///     above the query's threshold.  Bounds never produce a score, so
///     every key stays byte-identical (data/simd/README.md, rule 8).
///
/// Parity contract (tested in tests/test_kernels.cpp): for every MetricKind
/// the fused kernels return *byte-identical* Key sets to the per-query AoS
/// path under the corresponding metric functor.  Distances are accumulated
/// in the same dimension order as the functors, and Euclidean applies its
/// sqrt before selection, so even rounding ties break identically.
///
/// The inner loops (tile scoring + fused heap selection) are runtime-ISA
/// dispatched: data/simd/dispatch.hpp picks scalar / AVX2 / AVX-512 per
/// CPUID, every level byte-identical to the scalar reference (fuzzed in
/// tests/test_simd_parity.cpp), overridable via DKNN_FORCE_ISA or
/// simd::force_isa() for testing.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/flat_store.hpp"
#include "data/key.hpp"
#include "data/metric.hpp"
#include "data/metric_kind.hpp"
#include "data/point.hpp"

namespace dknn {

namespace simd {
struct KernelOps;  // data/simd/kernel_ops.hpp — the per-ISA op table
}  // namespace simd

/// Applies `kind` to one AoS pair — the reference the kernels are tested
/// against (dispatches to the metric.hpp functors).
[[nodiscard]] double metric_distance(MetricKind kind, const PointD& a, const PointD& b);

/// Reusable scratch for the fused kernels.  Buffers grow to the high-water
/// mark and are then reused; keep one per thread / call site to make the
/// steady-state query loop allocation-free.
///
/// It also holds the **running selection**: one bounded max-heap and one
/// raw-domain rejection threshold per query.  begin_top_ell empties it, any
/// number of stores feed it (fused_feed_batch, hybrid_feed_batch, a
/// RangeTopEll view, ann::ann_feed), and finish_top_ell sorts and encodes
/// it once.  Selection over distinct (distance, id) keys is order-blind and
/// a threshold only ever bounds what the shared heap would reject, so the
/// keys equal one fused scan of the union of every row fed, whatever the
/// order or split, while each later store is screened against the
/// thresholds the earlier ones left.
struct KernelScratch {
  std::vector<double> dist;                            ///< per-tile score rows, one per block query
  std::vector<std::pair<double, PointId>> heaps;       ///< Q bounded max-heaps, flattened
  std::vector<std::size_t> heap_sizes;                 ///< live entries per heap
  std::vector<double> thresholds;                      ///< per-query rejection thresholds
  std::size_t heap_cap = 0;                            ///< entries per heap (0: no feed scores)
  std::vector<const double*> cols;                     ///< RangeTopEll column pointers
  /// The float screen of a screened batch: the current tile translated and
  /// narrowed (d × kTile floats, 64 KB at d = 64) with its squared norms,
  /// the current query block narrowed by the same centre, and the block's
  /// screen rows (simd::ScreenTile in data/simd/kernel_ops.hpp).
  std::vector<float> screen;
  std::vector<double> centre;                          ///< the screened tile's translation, per dimension
};

/// Starts a running selection in `scratch`: `queries` empty heaps of `cap`
/// entries with +∞ thresholds.  A cap of min(ℓ, live rows to be fed)
/// selects each query's min(ℓ, live) best keys.
void begin_top_ell(KernelScratch& scratch, std::size_t queries, std::size_t cap);

/// Ends the running selection: out[q] (out is resized to the selection's
/// query count) gets heap q's keys ascending, ranks encode_distance-encoded.
void finish_top_ell(KernelScratch& scratch, std::vector<std::vector<Key>>& out);

/// Feeds every row of `store` into the running selection, query q of
/// `queries` (one per heap) into heap q.  Each point tile is scored one
/// query block (simd::kQueryBlock queries) at a time; a query's heap does
/// not depend on which other queries share its call.  `dead`, when
/// non-null, is a tombstone byte map aligned with the store's rows (1 =
/// deleted, 0 = live; at least store.size() bytes): dead rows are scored
/// with their tile but never enter a heap, so the heaps hold what feeding
/// the live rows alone would leave.
void fused_feed_batch(const FlatStore& store, std::span<const PointD> queries, MetricKind kind,
                      KernelScratch& scratch, const std::uint8_t* dead = nullptr);

/// Scores every point of `store` against every query in `queries`, fused
/// with bounded top-ℓ selection: begin_top_ell, fused_feed_batch,
/// finish_top_ell.  `out` is resized to queries.size(); out[q] holds query
/// q's min(ℓ, live) best keys ascending.
void fused_top_ell_batch(const FlatStore& store, std::span<const PointD> queries,
                         std::size_t ell, MetricKind kind,
                         std::vector<std::vector<Key>>& out, KernelScratch& scratch,
                         const std::uint8_t* dead = nullptr);

/// Single-query convenience over fused_top_ell_batch.
[[nodiscard]] std::vector<Key> fused_top_ell(const FlatStore& store, const PointD& query,
                                             std::size_t ell, MetricKind kind);

/// Materializing SoA kernel: all n keys in point order (the AoS path's
/// output shape, minus the per-point indirection).  Benchmarked against the
/// fused path in bench/micro_kernels.cpp.
void score_store(const FlatStore& store, const PointD& query, MetricKind kind,
                 std::vector<Key>& out);

/// A view of one query's heap in a running selection, scoring arbitrary
/// contiguous index ranges of one store into it — the leaf-range entry
/// point for kd-tree-pruned scoring (seq/kdtree.hpp's hybrid path), the
/// graph tier's exact rerank and split row ranges.  Runs exactly the
/// bounded-heap + lazy-sqrt machinery of fused_feed_batch, so feeding
/// *any* decomposition of the rows into ranges, in any order, finishes
/// with byte-identical keys; skipping a range is sound whenever every
/// point in it provably scores above threshold().  Rows flagged in the
/// optional `dead` map (as in fused_feed_batch) never enter the heap.
/// The heap, its size and its threshold live in the KernelScratch.
class RangeTopEll {
 public:
  /// Views heap `q` of the running selection `selection` holds.  Borrows
  /// every argument for its lifetime.
  RangeTopEll(KernelScratch& selection, std::size_t q, const FlatStore& store,
              const PointD& query, MetricKind kind, const std::uint8_t* dead = nullptr);

  /// A one-query selection: begins one in `scratch` with a heap of
  /// min(ℓ, store.size()) entries and views it.
  RangeTopEll(const FlatStore& store, const PointD& query, std::size_t ell, MetricKind kind,
              KernelScratch& scratch, const std::uint8_t* dead = nullptr);

  /// Scores points [lo, hi); requires lo <= hi <= store.size().
  void score_range(std::size_t lo, std::size_t hi);

  /// Conservative rejection threshold in the kernel's raw-score domain
  /// (squared sums for the Euclidean family, direct values for L1/L∞): a
  /// point or subtree whose raw score provably exceeds this cannot enter
  /// the heap and may be skipped.  +∞ until the heap is full.
  [[nodiscard]] double threshold() const { return scratch_.thresholds[q_]; }

  /// Sorts the viewed heap's keys ascending into `out`; that heap must not
  /// be fed afterwards.
  void finish(std::vector<Key>& out);

 private:
  KernelScratch& scratch_;  ///< the running selection, dist tile and column pointers
  std::size_t q_ = 0;       ///< the viewed heap
  const FlatStore& store_;
  const PointD& query_;
  MetricKind kind_;
  const simd::KernelOps* ops_ = nullptr;  ///< ISA resolved once at construction
  const std::uint8_t* dead_ = nullptr;    ///< tombstone map aligned with store_ rows, or null
};

}  // namespace dknn
