/// \file kernels_avx512.cpp
/// \brief AVX-512 scoring kernels: 8-wide double lanes, 16-wide heap
///        prefilter blocks, native masked-load tails, 16-wide float screen.
///
/// Compiled with -mavx512f as its own TU (CMakeLists.txt); dispatch only
/// hands out avx512_ops() after __builtin_cpu_supports("avx512f") — which
/// also verifies the OS enabled the ZMM state.  All logic lives in
/// simd_body.inl — this file supplies only the vector abstractions.  FMA
/// and float feed only the two-stage path's lower bounds, never a score
/// (byte parity; see README.md).

#include "data/simd/kernel_ops.hpp"

#if defined(DKNN_SIMD_X86)

#include <immintrin.h>

namespace dknn::simd {
namespace {

struct V {
  static constexpr std::size_t kWidth = 8;
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
  static V gather(const double* base, const std::int32_t* idx) {
    const __m256i lanes = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm512_i32gather_pd(lanes, base, 8)};
  }
  static double sum(V a) { return _mm512_reduce_add_pd(a.v); }
};

/// V's float companion: 16 lanes for the screen's single-precision pass.
struct F {
  static constexpr std::size_t kWidth = 16;
  __m512 v;

  static F load(const float* p) { return {_mm512_loadu_ps(p)}; }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
  static F broadcast(float x) { return {_mm512_set1_ps(x)}; }
  static F zero() { return {_mm512_setzero_ps()}; }
  friend F operator+(F a, F b) { return {_mm512_add_ps(a.v, b.v)}; }
  friend F operator*(F a, F b) { return {_mm512_mul_ps(a.v, b.v)}; }
  static F fmadd(F a, F b, F c) { return {_mm512_fmadd_ps(a.v, b.v, c.v)}; }
  static F fnmadd(F a, F b, F c) { return {_mm512_fnmadd_ps(a.v, b.v, c.v)}; }
  static F fmsub(F a, F b, F c) { return {_mm512_fmsub_ps(a.v, b.v, c.v)}; }
  static F narrow(V lo, V hi, V floor) {
    const __m256 l = at_least(lo, floor);
    const __m256 h = at_least(hi, floor);
    return {_mm512_castpd_ps(_mm512_insertf64x4(_mm512_zextpd256_pd512(_mm256_castps_pd(l)),
                                                _mm256_castps_pd(h), 1))};
  }
  static unsigned ngt_mask(F a, F b) {
    // _CMP_NGT_UQ: not-greater, unordered — a NaN bound never rejects.
    return static_cast<unsigned>(_mm512_cmp_ps_mask(a.v, b.v, _CMP_NGT_UQ));
  }
  static float sum(F a) { return _mm512_reduce_add_ps(a.v); }

  /// fl32 of x's lanes whose magnitude is at least floor, the others +0:
  /// the conversion's zero mask drops them.
  static __m256 at_least(V x, V floor) {
    return _mm512_maskz_cvtpd_ps(_mm512_cmp_pd_mask(V::abs(x).v, floor.v, _CMP_GE_OQ), x.v);
  }
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
