#include "serve/segment_store.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_set>
#include <utility>

#include "ann/graph_search.hpp"
#include "data/validate.hpp"
#include "obs/metrics.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

/// Store-layer instruments, registered once and cached (the registry
/// lookup takes a mutex; the instruments themselves are sharded atomics).
struct StoreMetrics {
  obs::Counter& inserts = obs::registry().counter(
      "dknn_store_inserts_total", "points appended into any SegmentStore delta");
  obs::Counter& erases = obs::registry().counter(
      "dknn_store_erases_total", "successful erases (delta removals + tombstones)");
  obs::Counter& seals = obs::registry().counter(
      "dknn_store_seals_total", "delta seals into immutable segments");
  obs::Counter& publishes = obs::registry().counter(
      "dknn_store_epoch_publishes_total", "snapshot publishes (epoch advances)");
  obs::Counter& compaction_installs = obs::registry().counter(
      "dknn_store_compaction_installs_total", "compaction installs that replaced victims");
  obs::Gauge& live_points = obs::registry().gauge(
      "dknn_store_live_points", "live points across all stores (delta + sealed, minus dead)");
  obs::Gauge& dead_rows = obs::registry().gauge(
      "dknn_store_dead_rows", "tombstoned rows across all stores' sealed segments");
};

StoreMetrics& store_metrics() {
  static StoreMetrics m;
  return m;
}

/// The id index's home slot for `id` among `slots`: the high half of a
/// Fibonacci hash, scaled into range without a division.
std::size_t id_slot(PointId id, std::size_t slots) {
  return static_cast<std::size_t>(((id * 0x9E3779B97F4A7C15ull) >> 32) * slots >> 32);
}

std::size_t next_slot(std::size_t slot, std::size_t slots) {
  return slot + 1 == slots ? 0 : slot + 1;
}

/// Seals an AoS point set into an immutable segment under the config's
/// policy: the shard's scoring structures plus the id → row index.
std::shared_ptr<const SealedSegment> build_segment(std::span<const PointD> points,
                                                   std::span<const PointId> ids,
                                                   const ServeConfig& config) {
  auto segment = std::make_shared<SealedSegment>();
  static_cast<ShardIndex&>(*segment) =
      make_shard_index(points, ids, config.policy, config.leaf_size, config.ann);
  const FlatStore& store = segment->store();
  std::vector<std::uint32_t>& index = segment->id_index;
  index.assign(2 * store.size(), SealedSegment::kNoRow);
  for (std::uint32_t row = 0; row < store.size(); ++row) {
    std::size_t slot = id_slot(store.id(row), index.size());
    for (; index[slot] != SealedSegment::kNoRow; slot = next_slot(slot, index.size())) {
      DKNN_REQUIRE(store.id(index[slot]) != store.id(row), "SegmentStore: duplicate id");
    }
    index[slot] = row;
  }
  return segment;
}

/// A fresh all-live view around a sealed payload.
SegmentView make_clean_view(std::shared_ptr<const SealedSegment> data,
                            std::uint64_t segment_id) {
  SegmentView view;
  const std::size_t n = data->store().size();
  view.data = std::move(data);
  view.dead = std::make_shared<const std::vector<std::uint8_t>>(n, std::uint8_t{0});
  view.dead_count = 0;
  view.segment_id = segment_id;
  return view;
}

}  // namespace

ShardIndex make_shard_index(std::span<const PointD> points, std::span<const PointId> ids,
                            ScoringPolicy policy, std::size_t leaf_size,
                            const ann::AnnConfig& ann) {
  DKNN_REQUIRE(points.size() == ids.size(), "shard points/ids must align");
  ShardIndex index;
  const std::size_t n = points.size();
  const std::size_t dim = n == 0 ? 0 : points[0].dim();
  const bool tree = n > 0 && dim >= 1 &&
                    (policy == ScoringPolicy::Tree ||
                     (policy == ScoringPolicy::Auto && tree_pays_off(n, dim)));
  if (tree) {
    index.tree = std::make_unique<KdRangeIndex>(points, ids, leaf_size);
  } else {
    index.flat = FlatStore(points, ids);
  }
  // Approx shards stay flat (the graph's rerank and the exact fallback both
  // scan the store); shards below min_points stay graph-less and exact.
  if (policy == ScoringPolicy::Approx && n >= std::max<std::size_t>(ann.min_points, 2)) {
    index.ann = std::make_shared<ann::GraphSlot>(ann);
  }
  return index;
}

std::optional<std::uint32_t> SealedSegment::row_of(PointId id) const {
  if (id_index.empty()) return std::nullopt;
  // At most half the slots are taken, so every probe ends at an empty one.
  for (std::size_t slot = id_slot(id, id_index.size());; slot = next_slot(slot, id_index.size())) {
    const std::uint32_t row = id_index[slot];
    if (row == kNoRow) return std::nullopt;
    if (store().id(row) == id) return row;
  }
}

bool ServeSnapshot::contains(PointId id) const {
  for (const SegmentView& seg : segments) {
    const SealedSegment& data = *seg.data;
    if (data.id_index.empty() && !data.store().empty()) {
      // Delta mirror: no id map (an O(delta) rebuild per publish would
      // defeat the O(d) incremental mirror), so scan — the delta is
      // bounded by seal_threshold and tombstone-free.
      const FlatStore& store = data.store();
      for (std::size_t i = 0; i < store.size(); ++i) {
        if (store.id(i) == id) return true;
      }
      continue;
    }
    const std::optional<std::uint32_t> row = data.row_of(id);
    if (row.has_value() && (*seg.dead)[*row] == 0) return true;
  }
  return false;
}

SegmentStore::SegmentStore(std::size_t dim, ServeConfig config)
    : SegmentStore(dim, {}, {}, config) {}

SegmentStore::SegmentStore(std::size_t dim, std::span<const PointD> points,
                           std::span<const PointId> ids, ServeConfig config)
    : dim_(dim), config_(config) {
  DKNN_REQUIRE(dim_ >= 1, "SegmentStore: needs dimension >= 1");
  DKNN_REQUIRE(config_.seal_threshold >= 1, "SegmentStore: seal_threshold must be positive");
  for (const PointD& point : points) {
    DKNN_REQUIRE(point.dim() == dim_, "SegmentStore: point dimension mismatch");
  }
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  if (!points.empty()) {
    segments_.push_back(make_clean_view(build_segment(points, ids, config_), next_segment_id_++));
    store_metrics().seals.add();
  }
  publish_locked();  // epoch 1
}

SegmentStore::~SegmentStore() {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  store_metrics().live_points.sub(obs_live_published_);
  store_metrics().dead_rows.sub(obs_dead_published_);
}

bool SegmentStore::live_in_writer_state(PointId id) const {
  if (delta_rows_.contains(id)) return true;
  for (const SegmentView& seg : segments_) {
    const std::optional<std::uint32_t> row = seg.data->row_of(id);
    if (row.has_value() && (*seg.dead)[*row] == 0) return true;
  }
  return false;
}

std::uint64_t SegmentStore::insert(const PointD& point, PointId id) {
  return insert_batch(std::span<const PointD>(&point, 1), std::span<const PointId>(&id, 1));
}

std::uint64_t SegmentStore::insert_batch(std::span<const PointD> points,
                                         std::span<const PointId> ids) {
  DKNN_REQUIRE(points.size() == ids.size(), "SegmentStore: points/ids must align");
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  if (points.empty()) return epoch_;
  std::unordered_set<PointId> batch_ids;
  batch_ids.reserve(ids.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    DKNN_REQUIRE(points[i].dim() == dim_, "SegmentStore: point dimension mismatch");
    require_finite(points[i]);
    // Unique live ids (paper §2): duplicates would break the total Key
    // order every selection algorithm relies on.  Validation runs before
    // any append so a rejected batch leaves the store untouched.
    DKNN_REQUIRE(!live_in_writer_state(ids[i]), "SegmentStore: id already live");
    DKNN_REQUIRE(batch_ids.insert(ids[i]).second, "SegmentStore: duplicate id in batch");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    delta_rows_.emplace(ids[i], delta_points_.size());
    delta_points_.push_back(points[i]);
    delta_ids_.push_back(ids[i]);
  }
  store_metrics().inserts.add(points.size());
  delta_dirty_ = true;
  if (delta_points_.size() >= config_.seal_threshold) seal_locked();
  return publish_locked();
}

std::optional<std::uint64_t> SegmentStore::erase(PointId id) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  // Delta hit: physically remove (swap with the last delta row).
  if (const auto it = delta_rows_.find(id); it != delta_rows_.end()) {
    const std::size_t row = it->second;
    const std::size_t last = delta_points_.size() - 1;
    if (row != last) {
      delta_points_[row] = std::move(delta_points_[last]);
      delta_ids_[row] = delta_ids_[last];
      delta_rows_[delta_ids_[row]] = row;
    }
    delta_points_.pop_back();
    delta_ids_.pop_back();
    delta_rows_.erase(it);
    delta_dirty_ = true;
    // The swap-remove rewrote a published mirror row in place, so the
    // current mirror generation's frozen-prefix contract is void: the next
    // publish starts a fresh generation (the rare O(delta·d) path).
    mirror_fresh_needed_ = true;
    store_metrics().erases.add();
    return publish_locked();
  }
  // Sealed hit: copy-on-write tombstone.  An id may appear dead in an old
  // segment and live in a newer one (delete + re-insert), so keep looking
  // past dead occurrences.
  for (SegmentView& seg : segments_) {
    const std::optional<std::uint32_t> row = seg.data->row_of(id);
    if (!row.has_value() || (*seg.dead)[*row] != 0) continue;
    auto dead = std::make_shared<std::vector<std::uint8_t>>(*seg.dead);
    (*dead)[*row] = 1;
    seg.dead = std::move(dead);
    ++seg.dead_count;
    store_metrics().erases.add();
    return publish_locked();
  }
  return std::nullopt;
}

std::uint64_t SegmentStore::seal() {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  if (delta_points_.empty()) return epoch_;
  seal_locked();
  return publish_locked();
}

void SegmentStore::seal_locked() {
  if (delta_points_.empty()) return;
  auto data = build_segment(delta_points_, delta_ids_, config_);
  segments_.push_back(make_clean_view(std::move(data), next_segment_id_++));
  delta_points_.clear();
  delta_ids_.clear();
  delta_rows_.clear();
  delta_dirty_ = true;
  store_metrics().seals.add();
}

std::uint64_t SegmentStore::publish_locked() {
  if (delta_dirty_) {
    // The mirror is a plain FlatStore over writer-owned capacity-strided
    // column buffers (never a tree — the delta is far too short-lived to
    // amortize one).  Inserts only *append* delta rows, so the rows a
    // previous publish exposed are already in the buffers and frozen;
    // syncing the tail costs O(d) per new row instead of the historical
    // O(delta·d) rebuild.  A delta erase rewrites a published row
    // (swap-remove), which voids the generation: a fresh buffer is
    // allocated and fully recopied, while snapshots holding the old
    // generation keep it alive untouched.
    const std::size_t n = delta_points_.size();
    if (n == 0) {
      delta_mirror_ = nullptr;
      mirror_coords_ = nullptr;
      mirror_ids_ = nullptr;
      mirror_zero_dead_ = nullptr;
      mirror_cap_ = 0;
      mirror_synced_ = 0;
      mirror_fresh_needed_ = false;
    } else {
      if (mirror_fresh_needed_ || mirror_coords_ == nullptr || n > mirror_cap_) {
        mirror_cap_ = std::max<std::size_t>(config_.seal_threshold, std::bit_ceil(n));
        mirror_coords_ = std::make_shared<std::vector<double>>(dim_ * mirror_cap_);
        mirror_ids_ = std::make_shared<std::vector<PointId>>(mirror_cap_);
        mirror_zero_dead_ =
            std::make_shared<const std::vector<std::uint8_t>>(mirror_cap_, std::uint8_t{0});
        mirror_synced_ = 0;
        mirror_fresh_needed_ = false;
      }
      for (std::size_t i = mirror_synced_; i < n; ++i) {
        const PointD& p = delta_points_[i];
        for (std::size_t j = 0; j < dim_; ++j) {
          (*mirror_coords_)[j * mirror_cap_ + i] = p[j];
        }
        (*mirror_ids_)[i] = delta_ids_[i];
      }
      mirror_copied_bytes_ +=
          static_cast<std::uint64_t>(n - mirror_synced_) * dim_ * sizeof(double);
      mirror_synced_ = n;
      auto mirror = std::make_shared<SealedSegment>();
      mirror->flat = FlatStore(mirror_coords_, mirror_ids_, n, dim_, mirror_cap_);
      // id_index deliberately left empty — ServeSnapshot::contains scans the
      // mirror instead (see the fallback there).
      delta_mirror_ = std::move(mirror);
    }
    delta_dirty_ = false;
  }
  auto next = std::make_shared<ServeSnapshot>();
  next->epoch = ++epoch_;
  next->dim = dim_;
  next->segments = segments_;
  if (delta_mirror_ != nullptr) {
    // Present the delta as one more (tombstone-free) segment so queries
    // treat every point source uniformly.  Id 0 is reserved for it —
    // sealed segments start at 1 — so compaction can never mistake the
    // mirror for a victim.  The view is hand-built (not make_clean_view)
    // so the all-zero dead map is shared per generation instead of
    // allocated O(n) per publish.
    SegmentView view;
    view.data = delta_mirror_;
    view.dead = mirror_zero_dead_;
    view.dead_count = 0;
    view.segment_id = 0;
    next->segments.push_back(std::move(view));
  }
  for (const SegmentView& seg : next->segments) next->live_points += seg.live();
  {
    StoreMetrics& m = store_metrics();
    m.publishes.add();
    // Delta-tracked gauges: contribute the change since this store's last
    // publish, so the merged gauge is the sum over all live stores.  Only
    // advance the book-kept baseline while enabled — gauge adds are
    // dropped when disabled, and a silently advanced baseline would make
    // the gauge drift on re-enable.
    if (obs::registry().enabled()) {
      std::int64_t dead = 0;
      for (const SegmentView& seg : segments_) dead += static_cast<std::int64_t>(seg.dead_count);
      const auto live = static_cast<std::int64_t>(next->live_points);
      m.live_points.add(live - obs_live_published_);
      m.dead_rows.add(dead - obs_dead_published_);
      obs_live_published_ = live;
      obs_dead_published_ = dead;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    published_ = std::move(next);
  }
  return epoch_;
}

std::size_t SegmentStore::segment_count() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  return segments_.size();
}

std::uint64_t SegmentStore::dead_rows() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  std::uint64_t dead = 0;
  for (const SegmentView& seg : segments_) dead += seg.dead_count;
  return dead;
}

TreeStats SegmentStore::tree_stats() const {
  TreeStats out;
  {
    // The base holds every compaction-retired segment's counters, so the
    // total stays monotone across installs instead of silently shrinking.
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    out += retired_tree_base_;
  }
  // Snapshot, not writer state: counters belong to the segments queries
  // actually traverse, and snapshot() is wait-free w.r.t. writers.
  const SnapshotPtr snap = snapshot();
  for (const SegmentView& seg : snap->segments) {
    if (seg.data->tree != nullptr) out += seg.data->tree->stats();
  }
  return out;
}

void SegmentStore::reset_tree_stats() const {
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    retired_tree_base_ = TreeStats{};
  }
  const SnapshotPtr snap = snapshot();
  for (const SegmentView& seg : snap->segments) {
    if (seg.data->tree != nullptr) seg.data->tree->reset_stats();
  }
}

namespace {

/// Shared victim predicate of plan_compaction / compaction_debt.
bool is_victim(const SegmentView& seg, const CompactionConfig& cfg) {
  if (seg.rows() == 0) return true;
  const double dead_fraction =
      static_cast<double>(seg.dead_count) / static_cast<double>(seg.rows());
  return dead_fraction > cfg.max_dead_fraction || seg.rows() < cfg.min_segment_points;
}

/// Worst-first victim order: most tombstone-heavy, then smallest.
bool victim_before(const SegmentView& a, const SegmentView& b) {
  const double fa = a.rows() == 0 ? 1.0
                                  : static_cast<double>(a.dead_count) /
                                        static_cast<double>(a.rows());
  const double fb = b.rows() == 0 ? 1.0
                                  : static_cast<double>(b.dead_count) /
                                        static_cast<double>(b.rows());
  if (fa != fb) return fa > fb;
  if (a.rows() != b.rows()) return a.rows() < b.rows();
  return a.segment_id < b.segment_id;
}

}  // namespace

SegmentStore::CompactionPlan SegmentStore::plan_compaction(const CompactionConfig& cfg) const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  CompactionPlan plan;
  for (const SegmentView& seg : segments_) {
    if (is_victim(seg, cfg)) plan.victims.push_back(seg);
  }
  std::sort(plan.victims.begin(), plan.victims.end(), victim_before);
  if (plan.victims.size() > cfg.max_victims) plan.victims.resize(cfg.max_victims);
  // A lone tombstone-free victim is just a small segment with nothing to
  // merge into: rewriting it would produce an identical segment — and
  // because each install publishes an epoch (flushing result caches), a
  // no-progress round would repeat forever.  Checked AFTER the cap: a
  // max_victims=1 config truncating a multi-victim plan down to one clean
  // segment must also land here, not livelock.
  if (plan.victims.size() == 1 && plan.victims[0].dead_count == 0) plan.victims.clear();
  return plan;
}

std::uint64_t SegmentStore::compaction_debt(const CompactionConfig& cfg) const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  std::uint64_t live = 0;
  std::uint64_t dead = 0;
  std::size_t victims = 0;
  bool tombstoned = false;
  for (const SegmentView& seg : segments_) {
    if (!is_victim(seg, cfg)) continue;
    ++victims;
    live += seg.live();
    dead += seg.dead_count;
    tombstoned = tombstoned || seg.dead_count > 0;
  }
  if (victims == 1 && !tombstoned) return 0;  // mirror plan_compaction's lone-victim rule
  return live + dead;
}

std::shared_ptr<const SealedSegment> SegmentStore::merge_segments(
    std::span<const SegmentView> victims, const ServeConfig& config) {
  std::vector<PointD> points;
  std::vector<PointId> ids;
  std::size_t total = 0;
  for (const SegmentView& seg : victims) total += seg.live();
  points.reserve(total);
  ids.reserve(total);
  for (const SegmentView& seg : victims) {
    const FlatStore& store = seg.data->store();
    seg.for_each_live_row([&](std::size_t row) {
      points.push_back(store.point(row));
      ids.push_back(store.id(row));
    });
  }
  if (points.empty()) return nullptr;
  return build_segment(points, ids, config);
}

std::uint64_t SegmentStore::mirror_copied_bytes() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  return mirror_copied_bytes_;
}

bool SegmentStore::install_compaction(const CompactionPlan& plan,
                                      std::shared_ptr<const SealedSegment> merged) {
  if (plan.empty()) return false;
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  // Every victim must still be published exactly as planned: same segment
  // and same tombstone bitmap *instance* (erase always swaps in a fresh
  // bitmap, so pointer identity is a complete change detector).  A single
  // mismatch aborts — installing anyway would resurrect points deleted
  // mid-build or double-install a segment.
  std::vector<std::size_t> victim_at;
  victim_at.reserve(plan.victims.size());
  for (const SegmentView& victim : plan.victims) {
    const auto it =
        std::find_if(segments_.begin(), segments_.end(), [&](const SegmentView& seg) {
          return seg.segment_id == victim.segment_id;
        });
    if (it == segments_.end() || it->dead != victim.dead) return false;
    victim_at.push_back(static_cast<std::size_t>(it - segments_.begin()));
  }
  // Bank the victims' traversal counters before they leave the store:
  // tree_stats() folds this base back in, so compaction never shrinks the
  // store's lifetime totals.  (A traversal still running against a held
  // snapshot of a victim can increment after this read and be missed —
  // acceptable for diagnostics.)
  for (const std::size_t i : victim_at) {
    if (segments_[i].data->tree != nullptr) retired_tree_base_ += segments_[i].data->tree->stats();
  }
  std::vector<SegmentView> survivors;
  survivors.reserve(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (std::find(victim_at.begin(), victim_at.end(), i) == victim_at.end()) {
      survivors.push_back(std::move(segments_[i]));
    }
  }
  if (merged != nullptr) {
    survivors.push_back(make_clean_view(std::move(merged), next_segment_id_++));
  }
  segments_ = std::move(survivors);
  store_metrics().compaction_installs.add();
  publish_locked();
  return true;
}

// --- snapshot scoring --------------------------------------------------------

namespace {

/// Feeds one shard into the running selection through its policy path.
void shard_feed_batch(const ShardIndex& shard, const std::uint8_t* dead,
                      std::span<const PointD> queries, std::size_t ell, MetricKind kind,
                      bool approx, KernelScratch& scratch) {
  if (approx && shard.ann != nullptr) {
    // Graph shard: seeded beam search for candidates, exact rerank into
    // the query's heap.  The view's tombstones filter the candidates (the
    // graph is shared across snapshots, so per-snapshot deadness lives in
    // the view).
    const ann::KnnGraph& graph = shard.ann->get_or_build(shard.store());
    const std::size_t ef = std::max(shard.ann->config().ef, ell);
    ann::AnnSearchScratch ann_scratch;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ann::ann_feed(graph, queries[q], q, ell, ef, kind, dead, ann_scratch, scratch);
    }
  } else if (shard.has_tree()) {
    hybrid_feed_batch(*shard.tree, queries, kind, scratch, dead);
  } else {
    fused_feed_batch(shard.store(), queries, kind, scratch, dead);
  }
}

/// Shared engine of the exact and approx snapshot scorers: one running
/// selection that every live segment feeds, largest first, so each
/// smaller segment is screened against the thresholds the larger ones
/// left.  Exact for the exact path; for the approx one, the graph
/// segments contribute their reranked candidates.
void snapshot_top_ell_impl(const ServeSnapshot& snapshot, std::span<const PointD> queries,
                           std::size_t ell, MetricKind kind, bool approx,
                           std::vector<std::vector<Key>>& out, KernelScratch& scratch) {
  if (snapshot.live_points > 0) {
    for (const PointD& query : queries) require_query_dim(snapshot.dim, query.dim());
  }
  begin_top_ell(scratch, queries.size(), std::min(ell, snapshot.live_points));
  if (scratch.heap_cap > 0) {
    // Descending live rows, ties in snapshot order (a merged segment is
    // appended after the ones it outlived).
    std::vector<const SegmentView*> order;
    order.reserve(snapshot.segments.size());
    for (const SegmentView& seg : snapshot.segments) {
      if (seg.live() > 0) order.push_back(&seg);
    }
    std::sort(order.begin(), order.end(), [](const SegmentView* a, const SegmentView* b) {
      return a->live() != b->live() ? a->live() > b->live() : a < b;
    });
    for (const SegmentView* seg : order) {
      shard_feed_batch(*seg->data, seg->dead_count == 0 ? nullptr : seg->dead->data(), queries,
                       ell, kind, approx, scratch);
    }
  }
  finish_top_ell(scratch, out);
}

}  // namespace

void shard_top_ell_batch(const ShardIndex& shard, const std::uint8_t* dead,
                         std::span<const PointD> queries, std::size_t ell, MetricKind kind,
                         bool approx, std::vector<std::vector<Key>>& out,
                         KernelScratch& scratch) {
  begin_top_ell(scratch, queries.size(), std::min(ell, shard.store().size()));
  shard_feed_batch(shard, dead, queries, ell, kind, approx, scratch);
  finish_top_ell(scratch, out);
}

void snapshot_top_ell_batch(const ServeSnapshot& snapshot, std::span<const PointD> queries,
                            std::size_t ell, MetricKind kind,
                            std::vector<std::vector<Key>>& out, KernelScratch& scratch) {
  snapshot_top_ell_impl(snapshot, queries, ell, kind, /*approx=*/false, out, scratch);
}

void snapshot_approx_top_ell_batch(const ServeSnapshot& snapshot,
                                   std::span<const PointD> queries, std::size_t ell,
                                   MetricKind kind, std::vector<std::vector<Key>>& out,
                                   KernelScratch& scratch) {
  snapshot_top_ell_impl(snapshot, queries, ell, kind, /*approx=*/true, out, scratch);
}

std::vector<Key> snapshot_top_ell(const ServeSnapshot& snapshot, const PointD& query,
                                  std::size_t ell, MetricKind kind) {
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  snapshot_top_ell_batch(snapshot, std::span<const PointD>(&query, 1), ell, kind, out,
                         scratch);
  return std::move(out[0]);
}

}  // namespace dknn
