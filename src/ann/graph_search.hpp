#pragma once
/// \file graph_search.hpp
/// \brief Seeded greedy beam search over a KnnGraph + exact rerank.
///
/// `ann_search_candidates` walks the graph best-first from deterministic
/// seed rows, keeping an ef-bounded candidate list and batch-scoring each
/// frontier through the SIMD dispatch table (RowScorer).  It returns
/// *candidate rows* only — `ann_top_ell` then reranks them with the exact
/// RangeTopEll kernel (one single-row range per candidate, ascending), so
/// the final Keys are bit-identical to what the exact path would produce
/// for those rows, on every ISA.  Approximation lives entirely in *which*
/// rows the walk surfaces (recall@ℓ, measured by bench_ann), never in the
/// returned ranks.
///
/// Tombstones: rows dead in the graph (KnnGraph::erase) or in the caller's
/// external bitmap (a SegmentView's copy-on-write tombstones — the graph is
/// shared across snapshots, so per-snapshot deadness must come from
/// outside) are traversed but never returned.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ann/knn_graph.hpp"
#include "data/kernels.hpp"
#include "data/key.hpp"
#include "data/metric_kind.hpp"
#include "data/point.hpp"

namespace dknn::ann {

/// One surviving candidate: raw-domain score (squared for the Euclidean
/// family) and its store row.
struct AnnCandidate {
  double raw;
  std::uint32_t row;
};

struct AnnSearchStats {
  std::uint64_t hops = 0;             ///< frontier expansions
  std::uint64_t frontier_points = 0;  ///< rows batch-scored during the walk
  std::uint64_t rerank_size = 0;      ///< candidates handed to the rerank
};

/// Reusable search scratch (visited bitset, heaps, gather buffers).  Keep
/// one per thread / call site; buffers grow to the high-water mark.
struct AnnSearchScratch {
  std::vector<std::uint64_t> visited;
  std::vector<AnnCandidate> cand;      ///< min-heap of unexpanded rows
  std::vector<AnnCandidate> results;   ///< max-heap of best ef live rows
  std::vector<std::uint32_t> frontier; ///< unvisited neighbors, gathered
  std::vector<double> dist;
  std::vector<std::uint32_t> rows;     ///< sorted rerank rows
  std::vector<AnnCandidate> hits;      ///< ann_top_ell's candidate set
  RowScorer scorer;
};

/// Greedy beam search: fills `out` with up to `ef` live candidates (rows
/// not tombstoned in the graph nor in `external_dead`, which may be null or
/// must cover graph.covered() bytes).  Frontier ordering uses `kind` in the
/// raw domain.  Deterministic given (graph, query, ef, kind, tombstones).
/// `out` is unordered (callers rerank); stats (optional) accumulate.
void ann_search_candidates(const KnnGraph& graph, const PointD& query, std::size_t ef,
                           MetricKind kind, const std::uint8_t* external_dead,
                           std::vector<AnnCandidate>& out, AnnSearchScratch& scratch,
                           AnnSearchStats* stats = nullptr);

/// Beam search + exact rerank into heap `q` of the running selection
/// `kernel_scratch` holds (data/kernels.hpp): the walk surfaces up to
/// max(ef, ℓ) candidates, each reranked by the exact RangeTopEll kernel
/// into the heap, so the heap ends holding the best of its earlier entries
/// and the candidates — bit-stable given the candidate set.  Records the
/// dknn_ann_search_* metrics.
void ann_feed(const KnnGraph& graph, const PointD& query, std::size_t q, std::size_t ell,
              std::size_t ef, MetricKind kind, const std::uint8_t* external_dead,
              AnnSearchScratch& scratch, KernelScratch& kernel_scratch);

/// Beam search + exact rerank as a one-query selection: `out` gets the
/// candidates' min(ℓ, |cand|) best Keys ascending, ranks
/// encode_distance-encoded by the exact RangeTopEll kernel — bit-stable
/// given the candidate set.  Records dknn_ann_search_* metrics and, with
/// ef ≥ max(ℓ, live rows reachable), degrades to the exact answer.
void ann_top_ell(const KnnGraph& graph, const PointD& query, std::size_t ell, std::size_t ef,
                 MetricKind kind, const std::uint8_t* external_dead, std::vector<Key>& out,
                 AnnSearchScratch& scratch, KernelScratch& kernel_scratch);

}  // namespace dknn::ann
