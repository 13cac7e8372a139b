#pragma once
/// \file latency.hpp
/// \brief The shared quantile module every bench's latency fields come from.
///
/// History: bench_serve's original `percentile()` floored the rank
/// (`sorted[size_t(p * (n-1))]`), which under-reports tail latency whenever
/// the sample count is below 1/(1−p) — a 10-sample p99 silently returned
/// the 90th percentile, and a 100-sample p999 the p98.  Every percentile a
/// bench emits now goes through this header instead, so the tail numbers
/// in BENCH_serve.json / BENCH_scenarios.json mean what they say.
///
/// Two estimators, both unit-tested against golden values in
/// tests/test_latency.cpp:
///
///   * `percentile_nearest_rank` — the ceil nearest-rank definition
///     (ISO 20998 / "the smallest sample ≥ p of the distribution"): rank =
///     ⌈p·n⌉ clamped to [1, n], value = sorted[rank − 1].  p99 over 10
///     samples is the maximum, never the 9th value.  This is what SLO
///     fields report: it always returns an observed latency and never
///     invents a value below the true tail.
///   * `percentile_interpolated` — the linear-interpolation variant
///     (Hyndman–Fan R-7, the numpy/Excel default): h = (n−1)·p, value =
///     sorted[⌊h⌋] + (h − ⌊h⌋)·(sorted[⌊h⌋+1] − sorted[⌊h⌋]).  Smoother
///     across runs for mid-distribution quantiles (p50 of an even-sized
///     bimodal sample is the midpoint, not one of the modes); may return a
///     value between samples, so SLO tails stay on nearest-rank.
///
/// Header-only and dependency-light on purpose: benches and tests include
/// it via the repo root (`#include "bench/latency.hpp"`), and it never
/// links anything from the dknn library.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace dknn::bench {

/// Ceil nearest-rank percentile of an ascending-sorted, non-empty sample.
/// `p` in [0, 1]; p = 0 returns the minimum, p = 1 the maximum.  A NaN `p`
/// returns NaN (it would otherwise reach an undefined float-to-index cast).
[[nodiscard]] inline double percentile_nearest_rank(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (std::isnan(p)) return p;
  const double n = static_cast<double>(sorted.size());
  // rank = ⌈p·n⌉, clamped to [1, n].  The clamp (not an epsilon fudge)
  // handles both ends: p ≤ 0 and any fp wobble above n.
  double rank = std::ceil(p * n);
  if (rank < 1.0) rank = 1.0;
  if (rank > n) rank = n;
  return sorted[static_cast<std::size_t>(rank) - 1];
}

/// Linearly interpolated percentile (Hyndman–Fan R-7) of an
/// ascending-sorted, non-empty sample.  `p` in [0, 1]; a NaN `p` returns NaN.
[[nodiscard]] inline double percentile_interpolated(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (std::isnan(p)) return p;
  if (p <= 0.0) return sorted.front();
  if (p >= 1.0) return sorted.back();
  const double h = static_cast<double>(sorted.size() - 1) * p;
  const auto lo = static_cast<std::size_t>(h);
  if (lo >= sorted.size() - 1) return sorted.back();
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

/// One sample set's SLO summary.  All percentile fields are ceil
/// nearest-rank (observed latencies, conservative tails).
struct LatencySummary {
  std::size_t count = 0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// Sorts `samples_ms` in place and fills the summary; an empty input
/// returns an all-zero summary.
[[nodiscard]] inline LatencySummary summarize_latencies(std::vector<double>& samples_ms) {
  LatencySummary out;
  if (samples_ms.empty()) return out;
  std::sort(samples_ms.begin(), samples_ms.end());
  out.count = samples_ms.size();
  out.min_ms = samples_ms.front();
  out.max_ms = samples_ms.back();
  double sum = 0.0;
  for (const double v : samples_ms) sum += v;
  out.mean_ms = sum / static_cast<double>(samples_ms.size());
  const std::span<const double> sorted(samples_ms);
  out.p50_ms = percentile_nearest_rank(sorted, 0.50);
  out.p95_ms = percentile_nearest_rank(sorted, 0.95);
  out.p99_ms = percentile_nearest_rank(sorted, 0.99);
  out.p999_ms = percentile_nearest_rank(sorted, 0.999);
  return out;
}

}  // namespace dknn::bench
