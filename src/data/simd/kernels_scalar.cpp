/// \file kernels_scalar.cpp
/// \brief Portable reference scoring kernels (the PR 1 auto-vectorized
///        code, relocated behind the KernelOps dispatch table).
///
/// This TU is compiled at the build's baseline flags — "scalar" means
/// "whatever the compiler generates from plain C++", which under
/// -march=native may itself auto-vectorize.  What it pins down is the
/// *semantics*: per point, coordinates accumulate in ascending dimension
/// order with one rounding per operation (no FMA: -ffp-contract=off is
/// global), and selection runs on a bounded max-heap in Key order.  The
/// explicit-intrinsics TUs reproduce exactly this operation sequence,
/// which is why every ISA is byte-identical (tests/test_simd_parity.cpp).

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/simd/kernel_ops.hpp"

namespace dknn::simd {
namespace {

/// Fixed-dimension kernel: the j-loop fully unrolls and the accumulator
/// chain lives in registers, so each point costs D column loads and one
/// store; the i-loop auto-vectorizes.
template <MetricKind K, std::size_t D>
void tile_scores_fixed(const double* const* cols, const double* query, std::size_t t0,
                       std::size_t m, double* __restrict dist) {
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < D; ++j) {
      const double diff = cols[j][t0 + i] - query[j];
      if constexpr (K == MetricKind::Euclidean || K == MetricKind::SquaredEuclidean) {
        acc += diff * diff;
      } else if constexpr (K == MetricKind::Manhattan) {
        acc += std::fabs(diff);
      } else {
        static_assert(K == MetricKind::Chebyshev);
        acc = std::max(acc, std::fabs(diff));
      }
    }
    dist[i] = acc;
  }
}

/// Dynamic-dimension fallback: dimension-outer accumulation through the
/// tile buffer (still vectorized, but pays dist loads/stores per dim).
/// Per point the partial sums are the same ascending-j sequence as the
/// fixed kernels, so the result bytes are identical either way.
template <MetricKind K>
void tile_scores_dynamic(const double* const* cols, const double* query, std::size_t d,
                         std::size_t t0, std::size_t m, double* __restrict dist) {
  std::fill_n(dist, m, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    const double qj = query[j];
    const double* __restrict col = cols[j] + t0;
    if constexpr (K == MetricKind::Euclidean || K == MetricKind::SquaredEuclidean) {
      for (std::size_t i = 0; i < m; ++i) {
        const double diff = col[i] - qj;
        dist[i] += diff * diff;
      }
    } else if constexpr (K == MetricKind::Manhattan) {
      for (std::size_t i = 0; i < m; ++i) dist[i] += std::fabs(col[i] - qj);
    } else {
      static_assert(K == MetricKind::Chebyshev);
      for (std::size_t i = 0; i < m; ++i) dist[i] = std::max(dist[i], std::fabs(col[i] - qj));
    }
  }
}

template <MetricKind K>
void tile_scores_k(const double* const* cols, const double* query, std::size_t d,
                   std::size_t t0, std::size_t m, double* dist) {
  switch (d) {
#define DKNN_FIXED_DIM_CASE(D) \
  case D: return tile_scores_fixed<K, D>(cols, query, t0, m, dist);
    DKNN_FIXED_DIM_CASE(1)
    DKNN_FIXED_DIM_CASE(2)
    DKNN_FIXED_DIM_CASE(3)
    DKNN_FIXED_DIM_CASE(4)
    DKNN_FIXED_DIM_CASE(5)
    DKNN_FIXED_DIM_CASE(6)
    DKNN_FIXED_DIM_CASE(7)
    DKNN_FIXED_DIM_CASE(8)
    DKNN_FIXED_DIM_CASE(9)
    DKNN_FIXED_DIM_CASE(10)
    DKNN_FIXED_DIM_CASE(11)
    DKNN_FIXED_DIM_CASE(12)
    DKNN_FIXED_DIM_CASE(13)
    DKNN_FIXED_DIM_CASE(14)
    DKNN_FIXED_DIM_CASE(15)
    DKNN_FIXED_DIM_CASE(16)
#undef DKNN_FIXED_DIM_CASE
    case 0: std::fill_n(dist, m, 0.0); return;
    default: return tile_scores_dynamic<K>(cols, query, d, t0, m, dist);
  }
}
static_assert(kMaxFixedDim == 16, "keep the dispatch table in sync");

/// Bounded max-heap view over HeapState.  Lexicographic pair order matches
/// Key order because encode_distance is strictly monotone.
struct BoundedHeap {
  HeapState& state;

  [[nodiscard]] bool full() const { return state.size == state.cap; }
  [[nodiscard]] const DistId& top() const { return state.data[0]; }
  void push(DistId entry) {
    state.data[state.size++] = entry;
    std::push_heap(state.data, state.data + state.size);
  }
  void replace_top(DistId entry) {
    std::pop_heap(state.data, state.data + state.size);
    state.data[state.size - 1] = entry;
    std::push_heap(state.data, state.data + state.size);
  }
};

/// Streams one scored tile into the heap.  For Euclidean, `raw` holds
/// squared sums and sqrt is applied only to candidates that survive the
/// threshold prefilter (O(ℓ log n) of them, not n); selection operates on
/// the exact sqrt values, so parity with the AoS path is bit-exact.
template <MetricKind K>
void heap_update_k(HeapState& state, double& threshold, const double* raw,
                   const std::uint64_t* ids, const std::uint8_t* dead, std::size_t m) {
  BoundedHeap heap{state};
  for (std::size_t i = 0; i < m; ++i) {
    if (dead != nullptr && dead[i] != 0) continue;
    const double s = raw[i];
    if (heap.full() && s > threshold) continue;  // common case: one compare
    if constexpr (K == MetricKind::Euclidean) {
      const DistId cand{std::sqrt(s), ids[i]};
      if (!heap.full()) {
        heap.push(cand);
        if (heap.full()) threshold = reject_threshold_sq(heap.top().first);
      } else if (cand < heap.top()) {
        heap.replace_top(cand);
        threshold = reject_threshold_sq(heap.top().first);
      }
    } else {
      const DistId cand{s, ids[i]};
      if (!heap.full()) {
        heap.push(cand);
        if (heap.full()) threshold = heap.top().first;
      } else if (cand < heap.top()) {
        heap.replace_top(cand);
        threshold = heap.top().first;
      }
    }
  }
}

void tile_scores_one(MetricKind kind, const double* const* cols, const double* query,
                     std::size_t d, std::size_t t0, std::size_t m, double* dist) {
  switch (kind) {
    case MetricKind::Euclidean:
      return tile_scores_k<MetricKind::Euclidean>(cols, query, d, t0, m, dist);
    case MetricKind::SquaredEuclidean:
      return tile_scores_k<MetricKind::SquaredEuclidean>(cols, query, d, t0, m, dist);
    case MetricKind::Manhattan:
      return tile_scores_k<MetricKind::Manhattan>(cols, query, d, t0, m, dist);
    case MetricKind::Chebyshev:
      return tile_scores_k<MetricKind::Chebyshev>(cols, query, d, t0, m, dist);
  }
}

/// The reference scores a query block one query at a time — the plain
/// per-query sequence the blocked vector kernels must reproduce per row.
void tile_scores_entry(MetricKind kind, const double* const* cols, const double* const* queries,
                       std::size_t nq, std::size_t d, std::size_t t0, std::size_t m,
                       double* dist, std::size_t stride) {
  for (std::size_t b = 0; b < nq; ++b) {
    tile_scores_one(kind, cols, queries[b], d, t0, m, dist + b * stride);
  }
}

void heap_update_entry(MetricKind kind, HeapState& heap, double& threshold, const double* raw,
                       const std::uint64_t* ids, const std::uint8_t* dead, std::size_t m) {
  switch (kind) {
    case MetricKind::Euclidean:
      return heap_update_k<MetricKind::Euclidean>(heap, threshold, raw, ids, dead, m);
    case MetricKind::SquaredEuclidean:
      return heap_update_k<MetricKind::SquaredEuclidean>(heap, threshold, raw, ids, dead, m);
    case MetricKind::Manhattan:
      return heap_update_k<MetricKind::Manhattan>(heap, threshold, raw, ids, dead, m);
    case MetricKind::Chebyshev:
      return heap_update_k<MetricKind::Chebyshev>(heap, threshold, raw, ids, dead, m);
  }
}

/// The reference the vector sqrt epilogues must match byte-for-byte —
/// trivially so, because IEEE sqrt is correctly rounded everywhere.
void sqrt_tile_entry(double* dist, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) dist[i] = std::sqrt(dist[i]);
}

}  // namespace

const KernelOps& scalar_ops() {
  // No bound ops: the reference scores every pair exactly and never screens.
  static constexpr KernelOps ops{"scalar", &tile_scores_entry, &heap_update_entry,
                                 &sqrt_tile_entry, nullptr, nullptr};
  return ops;
}

}  // namespace dknn::simd
