/// \file kernels_avx512.cpp
/// \brief AVX-512 scoring kernels: 8-wide double lanes, 16-wide heap
///        prefilter blocks, native masked-load tails.
///
/// Compiled with -mavx512f as its own TU (CMakeLists.txt); dispatch only
/// hands out avx512_ops() after __builtin_cpu_supports("avx512f") — which
/// also verifies the OS enabled the ZMM state.  All logic lives in
/// simd_body.inl — this file supplies only the vector abstraction.  FMA
/// feeds only the two-stage path's lower bounds, never a score (byte
/// parity; see README.md).

#include "data/simd/kernel_ops.hpp"

#if defined(DKNN_SIMD_X86)

#include <immintrin.h>

namespace dknn::simd {
namespace {

struct V {
  static constexpr std::size_t kWidth = 8;
  /// 8 queries × 2 point vectors = 16 bound accumulators of the 32 ZMMs.
  static constexpr std::size_t kBoundVectors = 2;
  __m512d v;

  static V load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static V load_partial(const double* p, std::size_t n) {
    const auto mask = static_cast<__mmask8>((1u << n) - 1u);
    return {_mm512_maskz_loadu_pd(mask, p)};
  }
  static V broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static V zero() { return {_mm512_setzero_pd()}; }
  friend V operator+(V a, V b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend V operator-(V a, V b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend V operator*(V a, V b) { return {_mm512_mul_pd(a.v, b.v)}; }
  // The all-lanes masked form is the same vmaxpd; the unmasked intrinsic
  // passes GCC 12's self-initialized "undefined" operand, which
  // -Wuninitialized flags once the query-blocked accumulators unroll.
  static V max(V a, V b) {
    return {_mm512_mask_max_pd(a.v, static_cast<__mmask8>(0xFF), a.v, b.v)};
  }
  static V abs(V a) { return {_mm512_abs_pd(a.v)}; }
  static V sqrt(V a) { return {_mm512_sqrt_pd(a.v)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static unsigned le_mask(V a, V b) {
    // _CMP_LE_OQ: ordered ≤ — inputs are never NaN (kernel invariant).
    return static_cast<unsigned>(_mm512_cmp_pd_mask(a.v, b.v, _CMP_LE_OQ));
  }
  static unsigned ngt_mask(V a, V b) {
    // _CMP_NGT_UQ: not-greater, unordered — a NaN bound never rejects.
    return static_cast<unsigned>(_mm512_cmp_pd_mask(a.v, b.v, _CMP_NGT_UQ));
  }
  static V gather(const double* base, const std::int32_t* idx) {
    const __m256i lanes = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm512_i32gather_pd(lanes, base, 8)};
  }
  static V fmadd(V a, V b, V c) { return {_mm512_fmadd_pd(a.v, b.v, c.v)}; }
  static V fnmadd(V a, V b, V c) { return {_mm512_fnmadd_pd(a.v, b.v, c.v)}; }
  static V fmsub(V a, V b, V c) { return {_mm512_fmsub_pd(a.v, b.v, c.v)}; }
};

#include "data/simd/simd_body.inl"

}  // namespace

const KernelOps& avx512_ops() {
  static constexpr KernelOps ops{"avx512", &tile_scores_entry, &heap_update_entry,
                                 &sqrt_tile_entry, &tile_bounds_entry, &bounded_update_entry};
  return ops;
}

}  // namespace dknn::simd

#endif  // DKNN_SIMD_X86
