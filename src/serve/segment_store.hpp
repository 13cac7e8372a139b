#pragma once
/// \file segment_store.hpp
/// \brief Live mutable point store behind epoch-numbered immutable
///        snapshots — the serving-side answer to "every store in this repo
///        is built once and frozen".
///
/// The paper's serving scenario (§1.1) is a cluster answering a query
/// stream against resident shards.  Real resident shards churn: points
/// arrive and expire while queries keep coming, and the index must absorb
/// both without ever returning an approximate answer or blocking readers.
/// `SegmentStore` is the LSM-shaped solution (PANDA's prune-then-partition
/// segments meet Debatty et al.'s online-index concern, see PAPERS.md):
///
///   * writes land in a small append-friendly **delta** buffer;
///   * when the delta reaches `ServeConfig::seal_threshold` it is
///     **sealed** into an immutable segment — a `FlatStore` (plus a
///     `KdRangeIndex` when the `ScoringPolicy` says trees pay off) that
///     the fused/SIMD/kd-hybrid batch kernels score at full speed;
///   * deletes **tombstone** rows of sealed segments via copy-on-write
///     byte maps (the heavy coordinate arrays are never copied);
///   * every mutation publishes a new immutable `ServeSnapshot` under a
///     monotonically increasing **epoch** number.
///
/// Snapshot discipline (the invariant everything rests on, see README.md):
/// a published `ServeSnapshot` and everything reachable from it is frozen
/// forever.  Writers build fresh wrapper objects and swap one shared_ptr
/// under a leaf mutex held for the pointer copy alone; readers copy that
/// pointer the same way and then score entirely lock-free — a query can
/// take arbitrarily long and never blocks (or is blocked by) inserts,
/// deletes, or compaction.
///
/// Query parity contract (fuzzed in tests/test_serve.cpp): for any
/// interleaving of insert / erase / seal / compact, `snapshot_top_ell_*`
/// over the published snapshot returns **byte-identical** keys to
/// `fused_top_ell` over a single FlatStore rebuilt from the live set at
/// that epoch, for every metric, scoring policy, and kernel ISA.  This
/// holds because every scoring path accumulates distances in the same
/// dimension-ascending order, tombstoned rows are masked out where a
/// scored row would enter a top-ℓ heap (so they never reach one), and
/// selection is order-blind over globally distinct (distance, id) keys —
/// segmentation, tombstones and the order in which segments feed one
/// running top-ℓ per query never change a byte.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ann/knn_graph.hpp"
#include "data/flat_store.hpp"
#include "data/kernels.hpp"
#include "data/key.hpp"
#include "data/metric_kind.hpp"
#include "data/point.hpp"
#include "seq/kdtree.hpp"
#include "seq/scoring_policy.hpp"

namespace dknn {

/// Knobs for the live store.
struct ServeConfig {
  /// Delta points before an automatic seal into an immutable segment.
  std::size_t seal_threshold = 1024;
  /// Scoring structure built per sealed segment (the delta mirror is
  /// always a plain FlatStore — it is rebuilt too often to amortize a
  /// tree).  Auto applies tree_pays_off per segment; Approx attaches a
  /// lazily-built k-NN graph to segments of ≥ ann.min_points rows.
  ScoringPolicy policy = ScoringPolicy::Auto;
  /// Leaf size of per-segment KdRangeIndexes.
  std::size_t leaf_size = KdRangeIndex::kDefaultLeafSize;
  /// Graph knobs for ScoringPolicy::Approx segments (ignored otherwise).
  ann::AnnConfig ann{};
};

/// One shard's resident scoring structures — what a machine scores its
/// local top-ℓ from: always an SoA store, plus the kd-tree when the policy
/// picked the hybrid for this shard, plus a lazily-built k-NN graph slot
/// when the policy is Approx and the shard is large enough.  Static shards
/// (make_shard_indexes) and sealed segments share this type, its builder
/// (make_shard_index) and its scorer (shard_top_ell_batch).
struct ShardIndex {
  FlatStore flat;                      ///< engaged iff tree == nullptr
  std::unique_ptr<KdRangeIndex> tree;  ///< engaged iff the tree path won
  /// Lazily-built k-NN graph (ScoringPolicy::Approx shards of ≥
  /// AnnConfig::min_points rows only; see src/ann/README.md).  The graph
  /// is a pure function of (store bytes, slot config), so sharing the
  /// built instance across every snapshot referencing a segment is sound;
  /// compaction's merged segment gets a fresh slot, which is the
  /// rebuild-on-compaction hook.
  std::shared_ptr<ann::GraphSlot> ann;

  [[nodiscard]] bool has_tree() const { return tree != nullptr; }
  /// The store queries scan (the tree's reordered mirror when present).
  [[nodiscard]] const FlatStore& store() const { return tree ? tree->store() : flat; }
};

/// Builds one shard's scoring structures under `policy`: a kd-tree when
/// the policy is Tree (or Auto and tree_pays_off), else a flat store; Approx
/// shards of ≥ ann.min_points rows also get a graph slot.
[[nodiscard]] ShardIndex make_shard_index(std::span<const PointD> points,
                                          std::span<const PointId> ids, ScoringPolicy policy,
                                          std::size_t leaf_size = KdRangeIndex::kDefaultLeafSize,
                                          const ann::AnnConfig& ann = {});

/// One sealed segment's heavy immutable payload.  Built once (at seal or
/// compaction time, possibly on a background thread) and shared by every
/// snapshot that references it.
struct SealedSegment : ShardIndex {
  /// Flat id → row index: an open-addressing table of 2·rows() slots, each
  /// kNoRow or a row of store(), probed linearly from a multiplicative hash
  /// of the id and compared through store().id() — 8 bytes a row, built in
  /// one pass with no per-entry allocation.  Left empty on the delta
  /// mirror (ServeSnapshot::contains scans it instead; filling it would
  /// cost O(delta) per publish, defeating the O(d) incremental mirror).
  std::vector<std::uint32_t> id_index;
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  /// The row of store() holding `id`, if the index has one.
  [[nodiscard]] std::optional<std::uint32_t> row_of(PointId id) const;
};

/// One epoch's view of a segment: shared heavy payload plus copy-on-write
/// tombstone state.  Value-copyable (two shared_ptrs and two integers),
/// immutable once published.
struct SegmentView {
  std::shared_ptr<const SealedSegment> data;
  /// Row-aligned tombstone flags (1 = deleted, 0 = live); never null.  May
  /// be longer than rows() (the delta mirror shares one capacity-sized
  /// all-zero map per generation), so walks stop at rows().
  std::shared_ptr<const std::vector<std::uint8_t>> dead;
  std::uint32_t dead_count = 0;
  /// Stable identity for compaction install checks (unique per seal).
  std::uint64_t segment_id = 0;

  [[nodiscard]] std::size_t rows() const { return data->store().size(); }
  [[nodiscard]] std::size_t live() const { return rows() - dead_count; }

  /// Calls `f(row)` for every live row of store(), ascending.
  template <typename F>
  void for_each_live_row(F&& f) const {
    const std::uint8_t* flags = dead->data();
    for (std::size_t row = 0, n = rows(); row < n; ++row) {
      if (flags[row] == 0) f(row);
    }
  }
};

/// One shard's local top-ℓ per query through its policy path: the graph
/// beam search + exact rerank when `approx` is set and the shard carries a
/// graph slot, else the kd-hybrid when it carries a tree, else the fused
/// batch kernel — each a feed of one running selection (data/kernels.hpp)
/// begun and finished for this shard alone.  `dead` is the shard's
/// tombstone map aligned with store() rows (null = every row live): every
/// path skips the rows it flags, so a tombstoned shard runs exactly a
/// clean shard's path.  `out` is resized to queries.size(); out[q] holds
/// min(ℓ, live) keys ascending.
void shard_top_ell_batch(const ShardIndex& shard, const std::uint8_t* dead,
                         std::span<const PointD> queries, std::size_t ell, MetricKind kind,
                         bool approx, std::vector<std::vector<Key>>& out,
                         KernelScratch& scratch);

/// Immutable frozen view of the whole store at one epoch.  The delta
/// buffer appears as a final tombstone-free SegmentView, so queries treat
/// it uniformly.
struct ServeSnapshot {
  std::uint64_t epoch = 0;
  std::size_t dim = 0;
  std::size_t live_points = 0;
  std::vector<SegmentView> segments;

  /// True iff `id` is live at this epoch.
  [[nodiscard]] bool contains(PointId id) const;
};

using SnapshotPtr = std::shared_ptr<const ServeSnapshot>;

/// What a compaction pass considers worth rewriting.
struct CompactionConfig {
  /// Segments whose dead/rows ratio exceeds this are rewritten to drop
  /// their tombstones.
  double max_dead_fraction = 0.25;
  /// Segments smaller than this merge together (small segments multiply
  /// per-segment kernel setup and per-query merge work).
  std::size_t min_segment_points = 512;
  /// Victims per compaction round (worst offenders first).  Values below
  /// 2 can only rewrite tombstoned segments — a lone clean victim is
  /// never planned (rewriting it would change nothing).
  std::size_t max_victims = 4;
};

/// The live store.  All mutators are internally serialized (one writer
/// mutex); `snapshot()` is wait-free with respect to writers.
class SegmentStore {
 public:
  /// An empty store at epoch 1.
  explicit SegmentStore(std::size_t dim, ServeConfig config = {});
  /// A store whose initial points are sealed straight into one segment —
  /// no pass through the delta — and published as epoch 1.  The snapshot
  /// scores exactly as insert_batch + seal would leave it.  `ids` must be
  /// distinct (DKNN_REQUIREd) and coordinates finite
  /// (NonFiniteCoordinateError).
  SegmentStore(std::size_t dim, std::span<const PointD> points, std::span<const PointId> ids,
               ServeConfig config = {});
  /// Withdraws this store's contribution from the process-wide obs
  /// live/dead gauges so a torn-down store stops counting.
  ~SegmentStore();

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] const ServeConfig& config() const { return config_; }

  /// Appends a live point.  `id` must be distinct from every live id
  /// (the paper's §2 unique-id invariant; DKNN_REQUIREd) and its
  /// coordinates finite (NonFiniteCoordinateError).  Seals the delta
  /// automatically at the threshold.  Returns the published epoch.
  std::uint64_t insert(const PointD& point, PointId id);

  /// Bulk insert (one snapshot publish for the whole span).
  std::uint64_t insert_batch(std::span<const PointD> points, std::span<const PointId> ids);

  /// Deletes a live point: removed from the delta, or tombstoned in its
  /// sealed segment (copy-on-write bitmap — the snapshot a concurrent
  /// reader holds still sees the point).  Returns the published epoch, or
  /// nullopt (and no epoch advance) when `id` is not live.
  std::optional<std::uint64_t> erase(PointId id);

  /// Seals the delta into an immutable segment now (no-op on an empty
  /// delta).  Returns the current epoch either way.
  std::uint64_t seal();

  /// The current frozen view.  Acquisition copies one shared_ptr under a
  /// leaf mutex held for nanoseconds (a refcount bump — never while
  /// anything scores, builds, or compacts; std::atomic<shared_ptr> would
  /// be lock-free but TSan cannot see through libstdc++'s lock-bit
  /// protocol and the sanitizer legs must stay clean).  Everything the
  /// returned pointer reaches is immutable, so *scoring* holds no locks.
  [[nodiscard]] SnapshotPtr snapshot() const {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return published_;
  }

  [[nodiscard]] std::uint64_t epoch() const { return snapshot()->epoch; }
  [[nodiscard]] std::size_t live_points() const { return snapshot()->live_points; }
  [[nodiscard]] bool contains(PointId id) const { return snapshot()->contains(id); }
  /// Sealed segments currently published (excludes the delta mirror).
  [[nodiscard]] std::size_t segment_count() const;
  /// Tombstoned rows across all sealed segments.
  [[nodiscard]] std::uint64_t dead_rows() const;

  /// Coordinate bytes copied into delta-mirror storage over this store's
  /// lifetime — the cost the incremental mirror bounds.  Inserts append
  /// exactly d·sizeof(double) each; only an erase (or capacity growth)
  /// triggers an O(delta·d) regeneration.  Pinned by tests/test_serve.cpp.
  [[nodiscard]] std::uint64_t mirror_copied_bytes() const;

  /// Cumulative kd-hybrid traversal counters: the sum over the *currently
  /// published* tree-carrying segments (brute segments and the delta
  /// mirror contribute nothing) plus a store-level base holding the
  /// counters of every segment compaction has retired.  Counters live on
  /// each segment's KdRangeIndex; install_compaction banks a victim's
  /// totals into the base before dropping it, so this reads as a
  /// monotone lifetime total across compactions (pinned by
  /// tests/test_serve.cpp's compact-under-load case).  Traversals still
  /// in flight on a *held* snapshot of a retired segment can land after
  /// the banking and be missed — the counters are diagnostics, racy by
  /// design, never answers.
  [[nodiscard]] TreeStats tree_stats() const;
  void reset_tree_stats() const;

  // --- compaction (used by serve/compactor.hpp; callable directly) ----------
  //
  // Split into plan / build / install so the expensive build can run on a
  // background thread against frozen views while writers keep mutating:
  //   plan    — under the writer lock, pick victim segments (frozen copies);
  //   build   — pure function of the frozen views, no locks (merge_segments);
  //   install — under the writer lock, swap victims for the merged segment
  //             *iff* every victim is still published unchanged; a victim
  //             that gained a tombstone mid-build aborts the install (the
  //             merged segment would resurrect the deleted point).

  struct CompactionPlan {
    std::vector<SegmentView> victims;  ///< frozen at plan time
    [[nodiscard]] bool empty() const { return victims.empty(); }
  };

  /// Victim selection: tombstone-heavy or undersized segments, worst
  /// first, capped at cfg.max_victims.  A single undersized segment with
  /// no tombstones is left alone (rewriting it gains nothing).
  [[nodiscard]] CompactionPlan plan_compaction(const CompactionConfig& cfg) const;

  /// Rows a compaction under `cfg` would rewrite (live rows of all
  /// would-be victims) plus the dead rows it would drop — the store's
  /// backlog of deferred maintenance.  0 = nothing to do.
  [[nodiscard]] std::uint64_t compaction_debt(const CompactionConfig& cfg) const;

  /// Gathers the victims' live rows and seals them into one fresh
  /// segment.  Pure: frozen inputs, no locks — safe on any thread.
  /// Returns nullptr when the victims hold no live rows.
  [[nodiscard]] static std::shared_ptr<const SealedSegment> merge_segments(
      std::span<const SegmentView> victims, const ServeConfig& config);

  /// Swaps the plan's victims for `merged` (nullptr = just drop the
  /// victims) and publishes a new epoch.  Returns false — and changes
  /// nothing — if any victim is no longer published byte-for-byte (its
  /// tombstones advanced, or an earlier install already consumed it).
  bool install_compaction(const CompactionPlan& plan,
                          std::shared_ptr<const SealedSegment> merged);

 private:
  /// Builds + publishes the next snapshot from writer state.  Caller
  /// holds writer_mutex_.  Returns the new epoch.
  std::uint64_t publish_locked();
  /// Seals the delta into segments_ (caller holds writer_mutex_; no
  /// publish).  No-op on an empty delta.
  void seal_locked();
  /// True iff `id` is live in writer state (caller holds writer_mutex_).
  [[nodiscard]] bool live_in_writer_state(PointId id) const;

  std::size_t dim_ = 0;
  ServeConfig config_;

  mutable std::mutex writer_mutex_;
  // Writer-side state (guarded by writer_mutex_):
  std::vector<PointD> delta_points_;
  std::vector<PointId> delta_ids_;
  std::unordered_map<PointId, std::size_t> delta_rows_;  ///< id → delta index
  std::vector<SegmentView> segments_;                    ///< sealed segments
  std::shared_ptr<const SealedSegment> delta_mirror_;    ///< cached sealed view of the delta
  bool delta_dirty_ = false;                             ///< mirror stale?
  // Incremental delta mirror: capacity-strided column buffers the writer
  // appends into; each publish wraps rows [0, n) in a shared-view
  // FlatStore (see flat_store.hpp).  Published rows are frozen by
  // contract, so an insert costs O(d) — only an erase (which rewrites a
  // published row via swap-remove) forces a fresh generation and a full
  // O(delta·d) recopy; old generations stay alive inside the snapshots
  // that reference them.
  std::shared_ptr<std::vector<double>> mirror_coords_;   ///< dim × mirror_cap_
  std::shared_ptr<std::vector<PointId>> mirror_ids_;     ///< mirror_cap_
  /// All-zero tombstone bitmap shared by every publish of one generation
  /// (the mirror is tombstone-free; sharing avoids an O(n) alloc/publish).
  std::shared_ptr<const std::vector<std::uint8_t>> mirror_zero_dead_;
  std::size_t mirror_cap_ = 0;
  std::size_t mirror_synced_ = 0;          ///< delta rows present in the buffers
  bool mirror_fresh_needed_ = false;       ///< prefix invalidated (delta erase)
  std::uint64_t mirror_copied_bytes_ = 0;  ///< lifetime copy cost (test hook)
  std::uint64_t epoch_ = 0;
  std::uint64_t next_segment_id_ = 1;
  /// Traversal counters of segments retired by compaction (guarded by
  /// writer_mutex_; mutable so reset_tree_stats() can zero it).
  mutable TreeStats retired_tree_base_;
  /// Last values this store contributed to the obs live/dead gauges
  /// (guarded by writer_mutex_; deltas keep multi-store sums correct).
  std::int64_t obs_live_published_ = 0;
  std::int64_t obs_dead_published_ = 0;

  /// The published snapshot.  Guarded by snapshot_mutex_ — a leaf lock
  /// covering only the pointer copy/swap, never any scoring or building.
  mutable std::mutex snapshot_mutex_;
  SnapshotPtr published_;
};

/// Scores `queries` against the snapshot's live set, fused with bounded
/// top-ℓ selection: one running selection (data/kernels.hpp) per call,
/// which every live segment feeds in descending live-row order (ties in
/// snapshot order) — through the fused batch kernel, or the kd-hybrid
/// when it carries a tree, with its tombstone map masking dead rows out of
/// the heaps.  The largest segment leaves the thresholds the smaller ones
/// are screened against, and nothing is pooled or re-selected.  `out` is
/// resized to queries.size(); out[q] holds min(ℓ, live) keys ascending.
/// Byte-identical to fused_top_ell_batch over a FlatStore rebuilt from the
/// live set (fuzzed in tests/test_serve.cpp).
void snapshot_top_ell_batch(const ServeSnapshot& snapshot, std::span<const PointD> queries,
                            std::size_t ell, MetricKind kind,
                            std::vector<std::vector<Key>>& out, KernelScratch& scratch);

/// Single-query convenience over snapshot_top_ell_batch.
[[nodiscard]] std::vector<Key> snapshot_top_ell(const ServeSnapshot& snapshot,
                                                const PointD& query, std::size_t ell,
                                                MetricKind kind);

/// Approximate variant: graph-carrying segments (ScoringPolicy::Approx
/// seals of ≥ AnnConfig::min_points rows) are beam-searched and their
/// candidates exact-reranked into the same running selection
/// (src/ann/graph_search.hpp), so the answer equals each segment's own
/// approx answer pooled and re-selected; every other segment —
/// including the delta mirror, so fresh inserts are never invisible —
/// scores exactly as snapshot_top_ell_batch.  Tombstoned rows are filtered
/// through the view's bitmap and can never be returned.  Every returned
/// Key is the point's exact (rank, id); only *which* points surface is
/// approximate (recall@ℓ — see src/ann/README.md; NOT byte-parity with the
/// exact path).  On a snapshot with no graph-carrying segments this is the
/// exact answer.
void snapshot_approx_top_ell_batch(const ServeSnapshot& snapshot,
                                   std::span<const PointD> queries, std::size_t ell,
                                   MetricKind kind, std::vector<std::vector<Key>>& out,
                                   KernelScratch& scratch);

}  // namespace dknn
