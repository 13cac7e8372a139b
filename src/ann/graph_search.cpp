#include "ann/graph_search.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "support/panic.hpp"

namespace dknn::ann {

namespace {

struct SearchMetrics {
  obs::Counter& searches;
  obs::Histogram& hops;
  obs::Histogram& frontier;
  obs::Histogram& rerank;

  static const SearchMetrics& get() {
    static SearchMetrics m{
        obs::registry().counter("dknn_ann_searches_total", "graph beam searches run"),
        obs::registry().histogram("dknn_ann_search_hops", "frontier expansions per search"),
        obs::registry().histogram("dknn_ann_frontier_scored_points",
                                  "rows batch-scored per search"),
        obs::registry().histogram("dknn_ann_rerank_candidates",
                                  "candidates exact-reranked per search"),
    };
    return m;
  }
};

/// Candidate total order: (raw, row) lexicographic — ties broken by row id
/// so heap contents (and therefore answers) are deterministic.
inline bool cand_less(const AnnCandidate& a, const AnnCandidate& b) {
  if (a.raw != b.raw) return a.raw < b.raw;
  return a.row < b.row;
}
inline bool cand_greater(const AnnCandidate& a, const AnnCandidate& b) { return cand_less(b, a); }

inline bool visited_test_set(std::vector<std::uint64_t>& bits, std::uint32_t row) {
  const std::uint64_t mask = std::uint64_t{1} << (row & 63u);
  std::uint64_t& word = bits[row >> 6u];
  if ((word & mask) != 0) return true;
  word |= mask;
  return false;
}

}  // namespace

void ann_search_candidates(const KnnGraph& graph, const PointD& query, std::size_t ef,
                           MetricKind kind, const std::uint8_t* external_dead,
                           std::vector<AnnCandidate>& out, AnnSearchScratch& scratch,
                           AnnSearchStats* stats) {
  out.clear();
  const std::size_t n = graph.covered();
  if (n == 0 || ef == 0) return;

  scratch.visited.assign((n + 63) / 64, 0);
  scratch.cand.clear();
  scratch.results.clear();
  scratch.scorer.bind(graph.store(), kind);
  scratch.scorer.set_query(query);

  const auto alive = [&](std::uint32_t row) {
    return !graph.is_dead(row) && (external_dead == nullptr || external_dead[row] == 0);
  };

  // `results` is a bounded max-heap (worst on top) of the best live rows
  // seen; `cand` is a min-heap of rows whose neighborhoods are still
  // unexpanded.  Both are (raw, row)-ordered for determinism.
  const auto offer = [&](std::uint32_t row, double raw) {
    const AnnCandidate c{raw, row};
    const bool full = scratch.results.size() >= ef;
    if (full && !cand_less(c, scratch.results.front())) return;  // can't improve
    scratch.cand.push_back(c);
    std::push_heap(scratch.cand.begin(), scratch.cand.end(), cand_greater);
    if (!alive(row)) return;
    scratch.results.push_back(c);
    std::push_heap(scratch.results.begin(), scratch.results.end(), cand_less);
    if (scratch.results.size() > ef) {
      std::pop_heap(scratch.results.begin(), scratch.results.end(), cand_less);
      scratch.results.pop_back();
    }
  };

  // Deterministic seed spread across the row space.
  const std::size_t seed_count = std::max<std::size_t>(1, std::min(graph.config().seeds, n));
  scratch.frontier.clear();
  for (std::size_t s = 0; s < seed_count; ++s) {
    const auto row = static_cast<std::uint32_t>((s * n) / seed_count);
    if (!visited_test_set(scratch.visited, row)) scratch.frontier.push_back(row);
  }
  std::uint64_t hops = 0;
  std::uint64_t scored = 0;
  scratch.dist.resize(scratch.frontier.size());
  scratch.scorer.score(scratch.frontier, scratch.dist.data());
  scored += scratch.frontier.size();
  for (std::size_t i = 0; i < scratch.frontier.size(); ++i) {
    offer(scratch.frontier[i], scratch.dist[i]);
  }

  while (!scratch.cand.empty()) {
    std::pop_heap(scratch.cand.begin(), scratch.cand.end(), cand_greater);
    const AnnCandidate cur = scratch.cand.back();
    scratch.cand.pop_back();
    if (scratch.results.size() >= ef && cand_less(scratch.results.front(), cur)) break;
    ++hops;
    scratch.frontier.clear();
    for (const std::uint32_t w : graph.neighbors(cur.row)) {
      if (w == KnnGraph::kNoNeighbor) break;  // sentinel tail is sorted last
      if (!visited_test_set(scratch.visited, w)) scratch.frontier.push_back(w);
    }
    if (scratch.frontier.empty()) continue;
    scratch.dist.resize(scratch.frontier.size());
    scratch.scorer.score(scratch.frontier, scratch.dist.data());
    scored += scratch.frontier.size();
    for (std::size_t i = 0; i < scratch.frontier.size(); ++i) {
      offer(scratch.frontier[i], scratch.dist[i]);
    }
  }

  out.assign(scratch.results.begin(), scratch.results.end());
  if (stats != nullptr) {
    stats->hops += hops;
    stats->frontier_points += scored;
    stats->rerank_size += out.size();
  }
}

void ann_feed(const KnnGraph& graph, const PointD& query, std::size_t q, std::size_t ell,
              std::size_t ef, MetricKind kind, const std::uint8_t* external_dead,
              AnnSearchScratch& scratch, KernelScratch& kernel_scratch) {
  AnnSearchStats stats;
  std::vector<AnnCandidate>& cands = scratch.hits;
  ann_search_candidates(graph, query, std::max(ef, ell), kind, external_dead, cands, scratch,
                        &stats);
  const SearchMetrics& m = SearchMetrics::get();
  m.searches.add(1);
  m.hops.record(stats.hops);
  m.frontier.record(stats.frontier_points);
  m.rerank.record(stats.rerank_size);
  if (cands.empty()) return;

  // Exact rerank: one single-row range per candidate, ascending, through a
  // RangeTopEll view of the query's heap — Keys bit-stable given the
  // candidate set.
  scratch.rows.clear();
  for (const AnnCandidate& c : cands) scratch.rows.push_back(c.row);
  std::sort(scratch.rows.begin(), scratch.rows.end());
  RangeTopEll rerank(kernel_scratch, q, graph.store(), query, kind);
  for (const std::uint32_t row : scratch.rows) {
    rerank.score_range(row, static_cast<std::size_t>(row) + 1);
  }
}

void ann_top_ell(const KnnGraph& graph, const PointD& query, std::size_t ell, std::size_t ef,
                 MetricKind kind, const std::uint8_t* external_dead, std::vector<Key>& out,
                 AnnSearchScratch& scratch, KernelScratch& kernel_scratch) {
  RangeTopEll selection(graph.store(), query, ell, kind, kernel_scratch);
  ann_feed(graph, query, 0, ell, ef, kind, external_dead, scratch, kernel_scratch);
  selection.finish(out);
}

}  // namespace dknn::ann
