#include "ann/knn_graph.hpp"

#include <algorithm>
#include <limits>

#include "ann/graph_search.hpp"
#include "data/simd/dispatch.hpp"
#include "data/simd/kernel_ops.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"
#include "support/bits.hpp"
#include "support/panic.hpp"
#include "support/timer.hpp"

namespace dknn::ann {

namespace {

/// Rows gathered/scored per tile: bounds RowScorer's buffers and keeps the
/// gather cache-resident.  A multiple of kTilePad so the padded tile/dist
/// buffers satisfy the full-width-store contract with no extra rounding.
constexpr std::size_t kScoreChunk = 512;
static_assert(kScoreChunk % simd::kTilePad == 0);

struct BuildMetrics {
  obs::Counter& builds;
  obs::Histogram& build_ns;
  obs::Histogram& build_iters;

  static const BuildMetrics& get() {
    static BuildMetrics m{
        obs::registry().counter("dknn_ann_graph_builds_total",
                                "k-NN graphs constructed (bulk NN-descent builds)"),
        obs::registry().histogram("dknn_ann_graph_build_ns",
                                  "wall time per bulk graph build"),
        obs::registry().histogram("dknn_ann_graph_build_iters",
                                  "NN-descent iterations per bulk build"),
    };
    return m;
  }
};

/// (raw, id) edge order: distance first, row id breaking ties — the total
/// order every adjacency list and candidate comparison uses, so builds are
/// deterministic even with duplicate points.
inline bool edge_less(double ra, std::uint32_t a, double rb, std::uint32_t b) {
  if (ra != rb) return ra < rb;
  return a < b;
}

}  // namespace

// --- RowScorer ---------------------------------------------------------------

void RowScorer::bind(const FlatStore& store, MetricKind kind) {
  store_ = &store;
  kind_ = kind;
  ops_ = &simd::kernel_ops();
  query_.assign(store.dim(), 0.0);
  tile_.assign(store.dim() * kScoreChunk, 0.0);
  dist_pad_.assign(kScoreChunk, 0.0);
  cols_.resize(store.dim());
  for (std::size_t j = 0; j < store.dim(); ++j) cols_[j] = tile_.data() + j * kScoreChunk;
}

void RowScorer::set_query(const PointD& query) {
  DKNN_REQUIRE(store_ != nullptr && query.dim() == store_->dim(),
               "RowScorer: query dimension mismatch");
  for (std::size_t j = 0; j < query_.size(); ++j) query_[j] = query[j];
}

void RowScorer::set_query_row(std::uint32_t row) {
  DKNN_REQUIRE(store_ != nullptr && row < store_->size(), "RowScorer: query row out of range");
  for (std::size_t j = 0; j < query_.size(); ++j) query_[j] = store_->coord(row, j);
}

void RowScorer::score(std::span<const std::uint32_t> rows, double* dist) {
  const std::size_t d = store_->dim();
  for (std::size_t base = 0; base < rows.size(); base += kScoreChunk) {
    const std::size_t m = std::min(kScoreChunk, rows.size() - base);
    for (std::size_t j = 0; j < d; ++j) {
      double* col = tile_.data() + j * kScoreChunk;
      std::span<const double> src = store_->dim_coords(j);
      for (std::size_t i = 0; i < m; ++i) col[i] = src[rows[base + i]];
    }
    const double* query = query_.data();
    ops_->tile_scores(kind_, cols_.data(), &query, 1, d, 0, m, dist_pad_.data(), kScoreChunk);
    std::copy_n(dist_pad_.data(), m, dist + base);
  }
}

// --- KnnGraph ----------------------------------------------------------------

KnnGraph::KnnGraph(const FlatStore& store, const AnnConfig& config)
    : store_(&store), config_(config) {
  const std::size_t n = store.size();
  degree_ = n <= 1 ? 0 : std::min(config.degree, n - 1);
  dead_.assign(n, 0);
  scorer_.bind(store, config.metric);
  WallTimer timer;
  bulk_build();
  covered_ = n;
  const BuildMetrics& m = BuildMetrics::get();
  m.builds.add(1);
  m.build_ns.record(timer.elapsed_ns());
  m.build_iters.record(build_iters_);
}

KnnGraph::KnnGraph(const FlatStore& store, const AnnConfig& config, OnlineTag)
    : store_(&store), config_(config) {
  const std::size_t n = store.size();
  degree_ = n <= 1 ? 0 : std::min(config.degree, n - 1);
  dead_.assign(n, 0);
  adj_.reserve(n * degree_);
  raw_.reserve(n * degree_);
  scorer_.bind(store, config.metric);
}

bool KnnGraph::try_edge(std::uint32_t u, std::uint32_t cand, double raw) {
  if (cand == u) return false;
  std::uint32_t* nbr = adj_.data() + static_cast<std::size_t>(u) * degree_;
  double* dst = raw_.data() + static_cast<std::size_t>(u) * degree_;
  // Reject if already present or worse than the current tail.
  for (std::size_t k = 0; k < degree_; ++k) {
    if (nbr[k] == cand) return false;
  }
  std::size_t pos = degree_;
  while (pos > 0 && edge_less(raw, cand, dst[pos - 1], nbr[pos - 1])) --pos;
  if (pos == degree_) return false;
  for (std::size_t k = degree_ - 1; k > pos; --k) {
    nbr[k] = nbr[k - 1];
    dst[k] = dst[k - 1];
  }
  nbr[pos] = cand;
  dst[pos] = raw;
  return true;
}

void KnnGraph::bulk_build() {
  const std::size_t n = store_->size();
  const std::size_t g = degree_;
  adj_.assign(n * g, kNoNeighbor);
  raw_.assign(n * g, std::numeric_limits<double>::infinity());
  if (n <= 1 || g == 0) return;

  Rng rng(config_.seed);
  std::vector<std::uint32_t> cand;
  std::vector<double> dist;

  // Random init: G distinct neighbors per row, scored and sorted.
  for (std::size_t u = 0; u < n; ++u) {
    cand.clear();
    while (cand.size() < g) {
      const auto v = static_cast<std::uint32_t>(rng.below(n));
      if (v == static_cast<std::uint32_t>(u)) continue;
      if (std::find(cand.begin(), cand.end(), v) != cand.end()) continue;
      cand.push_back(v);
    }
    dist.resize(cand.size());
    scorer_.set_query_row(static_cast<std::uint32_t>(u));
    scorer_.score(cand, dist.data());
    std::vector<std::size_t> order(cand.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return edge_less(dist[a], cand[a], dist[b], cand[b]);
    });
    for (std::size_t k = 0; k < g; ++k) {
      adj_[u * g + k] = cand[order[k]];
      raw_[u * g + k] = dist[order[k]];
    }
  }

  // NN-descent: candidates = neighbors-of-neighbors over the undirected
  // closure (forward adjacency ∪ a capped reverse sample), merged
  // symmetrically.  Stop when the update rate falls below δ.
  std::vector<std::uint32_t> rev(n * g, kNoNeighbor);
  std::vector<std::uint32_t> rev_len(n);
  std::vector<std::uint32_t> mark(n, 0);
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> ball;
  for (std::size_t it = 0; it < config_.max_iters; ++it) {
    std::fill(rev_len.begin(), rev_len.end(), 0u);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t k = 0; k < g; ++k) {
        const std::uint32_t v = adj_[u * g + k];
        if (rev_len[v] < g) rev[static_cast<std::size_t>(v) * g + rev_len[v]++] = static_cast<std::uint32_t>(u);
      }
    }
    std::size_t updates = 0;
    for (std::size_t u = 0; u < n; ++u) {
      ++epoch;
      mark[u] = epoch;
      ball.clear();
      for (std::size_t k = 0; k < g; ++k) ball.push_back(adj_[u * g + k]);
      for (std::size_t k = 0; k < rev_len[u]; ++k) ball.push_back(rev[u * g + k]);
      cand.clear();
      for (const std::uint32_t v : ball) {
        if (mark[v] != epoch) {
          mark[v] = epoch;
          cand.push_back(v);
        }
        for (std::size_t k = 0; k < g; ++k) {
          const std::uint32_t w = adj_[static_cast<std::size_t>(v) * g + k];
          if (mark[w] == epoch) continue;
          mark[w] = epoch;
          cand.push_back(w);
        }
      }
      if (cand.empty()) continue;
      dist.resize(cand.size());
      scorer_.set_query_row(static_cast<std::uint32_t>(u));
      scorer_.score(cand, dist.data());
      for (std::size_t k = 0; k < cand.size(); ++k) {
        updates += try_edge(static_cast<std::uint32_t>(u), cand[k], dist[k]) ? 1 : 0;
        updates += try_edge(cand[k], static_cast<std::uint32_t>(u), dist[k]) ? 1 : 0;
      }
    }
    build_iters_ = it + 1;
    if (static_cast<double>(updates) < config_.delta * static_cast<double>(n) * static_cast<double>(g)) {
      break;
    }
  }
}

void KnnGraph::insert(std::uint32_t row) {
  DKNN_REQUIRE(row == covered_ && row < store_->size(),
               "KnnGraph::insert: rows must be inserted in order");
  const std::size_t g = degree_;
  adj_.resize(adj_.size() + g, kNoNeighbor);
  raw_.resize(raw_.size() + g, std::numeric_limits<double>::infinity());
  if (g == 0) {
    ++covered_;
    return;
  }
  scorer_.set_query_row(row);
  std::vector<AnnCandidate> hits;
  if (covered_ <= g) {
    // Fewer existing rows than G: connect to all of them.
    std::vector<std::uint32_t> all(covered_);
    for (std::uint32_t v = 0; v < covered_; ++v) all[v] = v;
    std::vector<double> dist(all.size());
    scorer_.score(all, dist.data());
    for (std::size_t k = 0; k < all.size(); ++k) hits.push_back({dist[k], all[k]});
  } else {
    // Debatty search-then-connect: beam-search the current graph for the
    // new row's neighborhood.  Tombstoned rows still make fine edges, so
    // no external dead mask and the graph's own tombstones are ignored by
    // scoring here (search only *returns* live rows; re-score everything
    // it visited including the beam results).
    AnnSearchScratch scratch;
    const PointD q = store_->point(row);
    ann_search_candidates(*this, q, std::max(config_.ef, g + 1), config_.metric,
                          /*external_dead=*/nullptr, hits, scratch, nullptr);
  }
  std::sort(hits.begin(), hits.end(), [](const AnnCandidate& a, const AnnCandidate& b) {
    return edge_less(a.raw, a.row, b.raw, b.row);
  });
  ++covered_;  // try_edge on `row` itself is legal from here on
  const std::size_t take = std::min(hits.size(), g);
  for (std::size_t k = 0; k < take; ++k) {
    adj_[static_cast<std::size_t>(row) * g + k] = hits[k].row;
    raw_[static_cast<std::size_t>(row) * g + k] = hits[k].raw;
  }
  for (std::size_t k = 0; k < take; ++k) {
    try_edge(hits[k].row, row, hits[k].raw);  // reverse edge, displacing a worse one
  }
}

void KnnGraph::erase(std::uint32_t row) {
  DKNN_REQUIRE(row < store_->size(), "KnnGraph::erase: row out of range");
  if (row >= covered_ || dead_[row] != 0) return;
  dead_[row] = 1;
  ++dead_count_;
}

// --- GraphSlot ---------------------------------------------------------------

const KnnGraph& GraphSlot::get_or_build(const FlatStore& store) {
  std::call_once(once_, [&] {
    graph_ = std::make_unique<const KnnGraph>(store, config_);
    published_.store(graph_.get(), std::memory_order_release);
  });
  return *graph_;
}

}  // namespace dknn::ann
