#include "data/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>

#include "data/simd/dispatch.hpp"
#include "data/validate.hpp"

namespace dknn {
namespace {

using simd::HeapState;
using simd::KernelOps;

/// Points per tile (see simd::kTile for the cache and padding reasons).
using simd::kTile;

using DistId = simd::DistId;
static_assert(std::is_same_v<DistId, std::pair<double, PointId>>,
              "KernelScratch::heaps element layout is the dispatch ABI");

/// Column base pointers for one store: a stack array for typical
/// dimensionalities, heap-backed beyond.
constexpr std::size_t kMaxStackDims = 16;
struct ColumnPointers {
  const double* fixed[kMaxStackDims];
  std::vector<const double*> dynamic;

  explicit ColumnPointers(const FlatStore& store) {
    const std::size_t d = store.dim();
    if (d > kMaxStackDims) dynamic.resize(d);
    double const** out = d > kMaxStackDims ? dynamic.data() : fixed;
    for (std::size_t j = 0; j < d; ++j) out[j] = store.dim_coords(j).data();
  }
  [[nodiscard]] const double* const* get() const {
    return dynamic.empty() ? fixed : dynamic.data();
  }
};

/// Whether a batch screens its full-heap blocks with float lower bounds:
/// only the vector ISAs carry the bound ops, only the Euclidean family has
/// the expanded form, and at d <= simd::kMaxFixedDim the exact unrolled
/// kernels leave too little arithmetic to save.
bool two_stage(const KernelOps& ops, MetricKind kind, std::size_t d) {
  return ops.tile_bounds != nullptr && d > simd::kMaxFixedDim &&
         (kind == MetricKind::Euclidean || kind == MetricKind::SquaredEuclidean);
}

/// The one batch-kernel body: feeds every row of `store` into the running
/// selection's heaps, query q into heap q.
void batch_impl(const KernelOps& ops, MetricKind kind, const FlatStore& store,
                std::span<const PointD> queries, const std::uint8_t* dead,
                KernelScratch& scratch) {
  const std::size_t n = store.size();
  const std::size_t d = store.dim();
  const std::size_t num_queries = queries.size();
  const std::size_t cap = scratch.heap_cap;
  scratch.dist.resize(std::min(num_queries, simd::kQueryBlock) * kTile);
  const PointId* ids = store.ids().data();
  const ColumnPointers cols(store);
  const bool screened = two_stage(ops, kind, d);
  simd::ScreenTile screen;
  float* bounds = nullptr;  // the screen rows, one per block query
  if (screened) {
    // One buffer: the narrowed tile and its norms, the narrowed block and
    // the screen rows (simd::ScreenTile documents each part).
    const std::size_t dq = simd::screen_query_stride(d);
    scratch.screen.resize((d + 1 + simd::kQueryBlock) * kTile + simd::kQueryBlock * dq);
    scratch.centre.resize(d);
    screen.cols = scratch.screen.data();
    screen.norms = screen.cols + d * kTile;
    screen.queries = screen.norms + kTile;
    screen.centre = scratch.centre.data();
    bounds = screen.queries + simd::kQueryBlock * dq;
  }

  for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
    const std::size_t m = std::min(kTile, n - t0);
    const std::uint8_t* tile_dead = dead == nullptr ? nullptr : dead + t0;
    bool fresh_tile = true;  // the tile is not narrowed yet
    for (std::size_t q0 = 0; q0 < num_queries; q0 += simd::kQueryBlock) {
      const std::size_t nq = std::min(simd::kQueryBlock, num_queries - q0);
      const double* block[simd::kQueryBlock];
      for (std::size_t b = 0; b < nq; ++b) block[b] = queries[q0 + b].coords.data();
      const std::size_t* sizes = scratch.heap_sizes.data() + q0;
      // Once every heap of the block is full, its thresholds can reject,
      // so bounds pay off; before that every row would survive them.
      const bool bounded =
          screened && std::all_of(sizes, sizes + nq, [cap](std::size_t s) { return s == cap; });
      if (bounded) {
        ops.tile_bounds(cols.get(), block, nq, d, t0, m, screen, fresh_tile, bounds, kTile);
        fresh_tile = false;
      } else {
        ops.tile_scores(kind, cols.get(), block, nq, d, t0, m, scratch.dist.data(), kTile);
      }
      // Each query's heap still sees its tiles in ascending order, so the
      // selection sequence is exactly the one-query-at-a-time one.
      for (std::size_t b = 0; b < nq; ++b) {
        const std::size_t q = q0 + b;
        HeapState heap{scratch.heaps.data() + q * cap, scratch.heap_sizes[q], cap};
        if (bounded) {
          ops.bounded_update(kind, heap, scratch.thresholds[q], bounds + b * kTile, cols.get(),
                             block[b], d, t0, ids + t0, tile_dead, m);
        } else {
          ops.heap_update(kind, heap, scratch.thresholds[q], scratch.dist.data() + b * kTile,
                          ids + t0, tile_dead, m);
        }
        scratch.heap_sizes[q] = heap.size;
      }
    }
  }
}

/// Sorts heap q of the running selection ascending into `out`.
void finish_heap(KernelScratch& scratch, std::size_t q, std::vector<Key>& out) {
  DistId* heap = scratch.heaps.data() + q * scratch.heap_cap;
  const std::size_t size = scratch.heap_sizes[q];
  // Any ISA's heap is a valid max-heap in Key order (distinct ids make
  // the order total), so sort_heap lands on the same ascending bytes
  // whatever layout the push sequence produced.
  std::sort_heap(heap, heap + size);
  out.clear();
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(Key{encode_distance(heap[i].first), heap[i].second});
  }
}

void score_store_impl(const KernelOps& ops, MetricKind kind, const FlatStore& store,
                      const PointD& query, std::vector<Key>& out) {
  const std::size_t n = store.size();
  const std::size_t d = store.dim();
  const PointId* ids = store.ids().data();
  const ColumnPointers cols(store);
  const double* coords = query.coords.data();
  double dist[kTile];
  out.resize(n);
  for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
    const std::size_t m = std::min(kTile, n - t0);
    ops.tile_scores(kind, cols.get(), &coords, 1, d, t0, m, dist, kTile);
    // Materialization forces every rank into the metric's domain — the
    // fused path's lazy sqrt is exactly what this variant cannot do.  The
    // epilogue rides the same dispatch table as scoring (vsqrtpd on the
    // vector ISAs; correctly-rounded everywhere, so bytes never change).
    if (kind == MetricKind::Euclidean) ops.sqrt_tile(dist, m);
    for (std::size_t i = 0; i < m; ++i) {
      out[t0 + i] = Key{encode_distance(dist[i]), ids[t0 + i]};
    }
  }
}

}  // namespace

namespace {

/// The per-ISA entry switches can't panic themselves (the variant TUs stay
/// free of std::string-dragging headers — see data/simd/README.md), so an
/// out-of-enum kind would silently no-op into empty results.  Validate at
/// every public kernel entry instead, preserving the pre-dispatch loud
/// failure.
void require_known_kind(MetricKind kind, const char* where) {
  switch (kind) {
    case MetricKind::Euclidean:
    case MetricKind::SquaredEuclidean:
    case MetricKind::Manhattan:
    case MetricKind::Chebyshev: return;
  }
  panic(std::string(where) + ": unknown MetricKind");
}

/// `scratch` holding a freshly begun one-query selection of `cap` entries.
KernelScratch& one_query_selection(KernelScratch& scratch, std::size_t cap) {
  begin_top_ell(scratch, 1, cap);
  return scratch;
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Euclidean: return "euclidean";
    case MetricKind::SquaredEuclidean: return "squared-euclidean";
    case MetricKind::Manhattan: return "manhattan";
    case MetricKind::Chebyshev: return "chebyshev";
  }
  return "unknown";
}

double metric_distance(MetricKind kind, const PointD& a, const PointD& b) {
  switch (kind) {
    case MetricKind::Euclidean: return EuclideanMetric{}(a, b);
    case MetricKind::SquaredEuclidean: return SquaredEuclidean{}(a, b);
    case MetricKind::Manhattan: return ManhattanMetric{}(a, b);
    case MetricKind::Chebyshev: return ChebyshevMetric{}(a, b);
  }
  panic("metric_distance: unknown MetricKind");
}

void begin_top_ell(KernelScratch& scratch, std::size_t queries, std::size_t cap) {
  scratch.heap_cap = cap;
  scratch.heaps.resize(queries * cap);
  scratch.heap_sizes.assign(queries, 0);
  // Rejection thresholds, one per query (+∞ until that heap fills).
  scratch.thresholds.assign(queries, std::numeric_limits<double>::infinity());
}

void finish_top_ell(KernelScratch& scratch, std::vector<std::vector<Key>>& out) {
  out.resize(scratch.heap_sizes.size());
  for (std::size_t q = 0; q < out.size(); ++q) finish_heap(scratch, q, out[q]);
}

void fused_feed_batch(const FlatStore& store, std::span<const PointD> queries, MetricKind kind,
                      KernelScratch& scratch, const std::uint8_t* dead) {
  require_known_kind(kind, "fused_feed_batch");
  DKNN_REQUIRE(queries.size() == scratch.heap_sizes.size(),
               "fused_feed_batch: one query per heap of the running selection");
  // An empty store has no knowable dimension (mirrors the AoS path, which
  // never checks dims against an empty shard); a non-empty one validates
  // even when the heaps hold nothing so caller bugs aren't masked by empty
  // results.
  if (store.empty()) return;
  for (const PointD& query : queries) require_query_dim(store.dim(), query.dim());
  if (scratch.heap_cap == 0) return;
  batch_impl(simd::kernel_ops(), kind, store, queries, dead, scratch);
}

void fused_top_ell_batch(const FlatStore& store, std::span<const PointD> queries,
                         std::size_t ell, MetricKind kind,
                         std::vector<std::vector<Key>>& out, KernelScratch& scratch,
                         const std::uint8_t* dead) {
  begin_top_ell(scratch, queries.size(), std::min(ell, store.size()));
  fused_feed_batch(store, queries, kind, scratch, dead);
  finish_top_ell(scratch, out);
}

RangeTopEll::RangeTopEll(KernelScratch& selection, std::size_t q, const FlatStore& store,
                         const PointD& query, MetricKind kind, const std::uint8_t* dead)
    : scratch_(selection), q_(q), store_(store), query_(query), kind_(kind),
      ops_(&simd::kernel_ops()), dead_(dead) {
  require_known_kind(kind, "RangeTopEll");
  DKNN_REQUIRE(q < selection.heap_sizes.size(), "RangeTopEll: no such heap");
  if (!store.empty()) {
    require_query_dim(store.dim(), query.dim());
  }
  // The tile and column buffers live in the caller's scratch (reused across
  // the query block), so steady-state hybrid scoring is allocation-free like
  // the fused batch path.
  scratch_.dist.resize(kTile);
  scratch_.cols.resize(store.dim());
  for (std::size_t j = 0; j < store.dim(); ++j) scratch_.cols[j] = store.dim_coords(j).data();
}

RangeTopEll::RangeTopEll(const FlatStore& store, const PointD& query, std::size_t ell,
                         MetricKind kind, KernelScratch& scratch, const std::uint8_t* dead)
    : RangeTopEll(one_query_selection(scratch, std::min(ell, store.size())), 0, store, query,
                  kind, dead) {}

void RangeTopEll::score_range(std::size_t lo, std::size_t hi) {
  DKNN_ASSERT(lo <= hi && hi <= store_.size(), "RangeTopEll: range out of bounds");
  const std::size_t cap = scratch_.heap_cap;
  if (cap == 0 || lo == hi) return;
  const PointId* ids = store_.ids().data();
  const double* coords = query_.coords.data();
  HeapState heap{scratch_.heaps.data() + q_ * cap, scratch_.heap_sizes[q_], cap};
  double& threshold = scratch_.thresholds[q_];
  for (std::size_t t0 = lo; t0 < hi; t0 += kTile) {
    const std::size_t m = std::min(kTile, hi - t0);
    ops_->tile_scores(kind_, scratch_.cols.data(), &coords, 1, store_.dim(), t0, m,
                      scratch_.dist.data(), kTile);
    ops_->heap_update(kind_, heap, threshold, scratch_.dist.data(), ids + t0,
                      dead_ == nullptr ? nullptr : dead_ + t0, m);
  }
  scratch_.heap_sizes[q_] = heap.size;
}

void RangeTopEll::finish(std::vector<Key>& out) { finish_heap(scratch_, q_, out); }

std::vector<Key> fused_top_ell(const FlatStore& store, const PointD& query, std::size_t ell,
                               MetricKind kind) {
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  fused_top_ell_batch(store, std::span<const PointD>(&query, 1), ell, kind, out, scratch);
  return std::move(out[0]);
}

void score_store(const FlatStore& store, const PointD& query, MetricKind kind,
                 std::vector<Key>& out) {
  require_known_kind(kind, "score_store");
  if (store.empty()) {
    out.clear();
    return;
  }
  require_query_dim(store.dim(), query.dim());
  score_store_impl(simd::kernel_ops(), kind, store, query, out);
}

}  // namespace dknn
