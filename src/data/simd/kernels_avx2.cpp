/// \file kernels_avx2.cpp
/// \brief AVX2 scoring kernels: 4-wide double lanes, 8-wide heap
///        prefilter blocks, maskload tails, 8-wide float screen.
///
/// Compiled with -mavx2 -mfma as its own TU (CMakeLists.txt); dispatch
/// only hands out avx2_ops() after __builtin_cpu_supports("avx2") and
/// ("fma").  All logic lives in simd_body.inl — this file supplies only
/// the vector abstractions.  FMA and float feed only the two-stage path's
/// lower bounds, never a score (byte parity; see README.md).

#include "data/simd/kernel_ops.hpp"

#if defined(DKNN_SIMD_X86)

#include <immintrin.h>

namespace dknn::simd {
namespace {

struct V {
  static constexpr std::size_t kWidth = 4;
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
  static V gather(const double* base, const std::int32_t* idx) {
    // The masked form with a zero source is the same vgatherdpd; the
    // unmasked intrinsic passes GCC 12's self-initialized "undefined"
    // operand, which -Wmaybe-uninitialized flags.
    const __m128i lanes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, lanes, all, 8)};
  }
  static double sum(V a) {
    const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(a.v), _mm256_extractf128_pd(a.v, 1));
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }

  /// All-ones in the first n (1..3) 64-bit lanes — a sliding window over a
  /// constant table, so no per-call mask construction.
  static __m256i tail_mask(std::size_t n) {
    alignas(32) static constexpr std::int64_t kWindow[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kWindow + (4 - n)));
  }
};

/// V's float companion: 8 lanes for the screen's single-precision pass.
struct F {
  static constexpr std::size_t kWidth = 8;
  __m256 v;

  static F load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
  static F broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static F zero() { return {_mm256_setzero_ps()}; }
  friend F operator+(F a, F b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend F operator*(F a, F b) { return {_mm256_mul_ps(a.v, b.v)}; }
  static F fmadd(F a, F b, F c) { return {_mm256_fmadd_ps(a.v, b.v, c.v)}; }
  static F fnmadd(F a, F b, F c) { return {_mm256_fnmadd_ps(a.v, b.v, c.v)}; }
  static F fmsub(F a, F b, F c) { return {_mm256_fmsub_ps(a.v, b.v, c.v)}; }
  static F narrow(V lo, V hi, V floor) {
    return {_mm256_set_m128(_mm256_cvtpd_ps(at_least(hi, floor)),
                            _mm256_cvtpd_ps(at_least(lo, floor)))};
  }
  static unsigned ngt_mask(F a, F b) {
    // _CMP_NGT_UQ: not-greater, unordered — a NaN bound never rejects.
    return static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(a.v, b.v, _CMP_NGT_UQ)));
  }
  static float sum(F a) {
    __m128 quad = _mm_add_ps(_mm256_castps256_ps128(a.v), _mm256_extractf128_ps(a.v, 1));
    quad = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    return _mm_cvtss_f32(_mm_add_ss(quad, _mm_movehdup_ps(quad)));
  }

  /// x's lanes whose magnitude is at least floor, the others +0.
  static __m256d at_least(V x, V floor) {
    return _mm256_and_pd(x.v, _mm256_cmp_pd(V::abs(x).v, floor.v, _CMP_GE_OQ));
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
