/// \file kernels_avx2.cpp
/// \brief AVX2 scoring kernels: 4-wide double lanes, 8-wide heap
///        prefilter blocks, maskload tails.
///
/// Compiled with -mavx2 -mfma as its own TU (CMakeLists.txt); dispatch
/// only hands out avx2_ops() after __builtin_cpu_supports("avx2") and
/// ("fma").  All logic lives in simd_body.inl — this file supplies only
/// the vector abstraction.  FMA feeds only the two-stage path's lower
/// bounds, never a score (byte parity; see README.md).

#include "data/simd/kernel_ops.hpp"

#if defined(DKNN_SIMD_X86)

#include <immintrin.h>

namespace dknn::simd {
namespace {

struct V {
  static constexpr std::size_t kWidth = 4;
  /// 8 queries × 1 point vector: 8 bound accumulators of the 16 YMMs.
  static constexpr std::size_t kBoundVectors = 1;
  __m256d v;

  static V load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static V load_partial(const double* p, std::size_t n) {
    return {_mm256_maskload_pd(p, tail_mask(n))};
  }
  static V broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static V zero() { return {_mm256_setzero_pd()}; }
  friend V operator+(V a, V b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend V operator-(V a, V b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend V operator*(V a, V b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static V max(V a, V b) { return {_mm256_max_pd(a.v, b.v)}; }
  static V abs(V a) { return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)}; }
  static V sqrt(V a) { return {_mm256_sqrt_pd(a.v)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static unsigned le_mask(V a, V b) {
    // _CMP_LE_OQ: ordered ≤ — inputs are never NaN (kernel invariant).
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)));
  }
  static unsigned ngt_mask(V a, V b) {
    // _CMP_NGT_UQ: not-greater, unordered — a NaN bound never rejects.
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_NGT_UQ)));
  }
  static V gather(const double* base, const std::int32_t* idx) {
    // The masked form with a zero source is the same vgatherdpd; the
    // unmasked intrinsic passes GCC 12's self-initialized "undefined"
    // operand, which -Wmaybe-uninitialized flags.
    const __m128i lanes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, lanes, all, 8)};
  }
  static V fmadd(V a, V b, V c) { return {_mm256_fmadd_pd(a.v, b.v, c.v)}; }
  static V fnmadd(V a, V b, V c) { return {_mm256_fnmadd_pd(a.v, b.v, c.v)}; }
  static V fmsub(V a, V b, V c) { return {_mm256_fmsub_pd(a.v, b.v, c.v)}; }

  /// All-ones in the first n (1..3) 64-bit lanes — a sliding window over a
  /// constant table, so no per-call mask construction.
  static __m256i tail_mask(std::size_t n) {
    alignas(32) static constexpr std::int64_t kWindow[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kWindow + (4 - n)));
  }
};

#include "data/simd/simd_body.inl"

}  // namespace

const KernelOps& avx2_ops() {
  static constexpr KernelOps ops{"avx2", &tile_scores_entry, &heap_update_entry,
                                 &sqrt_tile_entry, &tile_bounds_entry, &bounded_update_entry};
  return ops;
}

}  // namespace dknn::simd

#endif  // DKNN_SIMD_X86
