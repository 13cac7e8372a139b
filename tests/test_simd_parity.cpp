// Cross-ISA parity harness for the explicit-SIMD scoring kernels
// (src/data/simd/): every ISA level the build + CPU supports — scalar,
// AVX2, AVX-512, each pinned via simd::force_isa — must produce
// *byte-identical* Key output to the AoS metric-functor reference, for all
// four metrics, across
//
//   * d ∈ {1..24, 31, 32, 33, 63, 64, 65} (fixed-dim kernel table, the
//     dynamic fallback, and power-of-two ± 1 column strides),
//   * n hitting every tail residue mod 16 (the widest prefilter block),
//     including n smaller than one vector,
//   * exact distance ties and duplicated points (id-only tie-breaks),
//   * ℓ = 1, ℓ ≥ n, and mid-range ℓ,
//   * NaN-free denormal coordinates (masked lanes and underflowing
//     accumulators must not flush, trap, or reorder),
//   * at d > 16, shards of three tiles plus a tail, where full heaps send
//     the vector ISAs through the two-stage screen (single-precision lower
//     bounds over a translated float copy of each tile, then exact
//     rescoring), with ℓ ∈ {1, 32, 300}, grid ties, denormals, products
//     that round as subnormals, 1e8 ± 1 and 1e4 ± 10 offsets (the expanded
//     form cancels without the translation), magnitudes whose float
//     squares (≈1e19) or float conversions (≈1e39) overflow, the float
//     subnormal range (≈1e-40), and ≈1e155 / ≈1e160 magnitudes (double
//     norms overflow, and so do translated coordinates narrowed to
//     float), where every overflowing bound is NaN and must not reject,
//     plus direct checks that no bound exceeds its exact score and that
//     the bounds reject nearly every pair an exact screen would,
//
// over the fused kernel for one query and for batches of 1 … 2Q+1
// queries (Q = simd::kQueryBlock, so every remainder of the query block
// runs after zero, one and two full blocks), the RangeTopEll leaf scorer
// under random range decompositions (the kd-hybrid entry point), both
// again under tombstone maps (dead rows must never reach a heap), the
// materializing score_store, and the policy-aware parallel driver path.
// Failures log the trial seed via SCOPED_TRACE for a one-line repro.
//
// ISAs the running CPU lacks are skipped (and logged) — the scalar row is
// always present, so the suite never passes vacuously.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "data/generators.hpp"
#include "data/kernels.hpp"
#include "data/simd/dispatch.hpp"
#include "data/simd/kernel_ops.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/kdtree.hpp"
#include "seq/select.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;
using testing_support::reference_top_ell;

constexpr MetricKind kAllKinds[] = {MetricKind::Euclidean, MetricKind::SquaredEuclidean,
                                    MetricKind::Manhattan, MetricKind::Chebyshev};

/// The dimension schedule the issue pins: the whole fixed-dim table, the
/// dynamic fallback, and ±1 around vector-width multiples.
constexpr std::size_t kDims[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16,
                                 17, 18, 19, 20, 21, 22, 23, 24, 31, 32, 33, 63, 64, 65};

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> out;
  for (std::size_t i = 0; i < simd::kIsaCount; ++i) {
    const auto isa = static_cast<simd::Isa>(i);
    if (simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;  // scalar is always supported
}

using ForcedIsa = simd::ScopedForceIsa;

enum class CoordMode {
  Continuous,  ///< full-range doubles
  Grid,        ///< small integers — exact cross-point distance ties
  Denormal,    ///< |x| ≲ 5e-308 — diffs/squares underflow into subnormals
  Offset,      ///< 1e8 ± 1 — ‖x‖² + ‖q‖² − 2·x·q cancels catastrophically
  TinySquares, ///< |x| ≲ 2e-161 — products and sums round as subnormals
  Huge155,     ///< 1e155 · (1 ± 1e-3) — norms overflow, distances stay finite
  Huge160,     ///< 1e160 · (1 ± 1e-7) — norms overflow, some distances too
  Offset4,     ///< 1e4 ± 10 — float cancels in the expanded form without the translation
  Huge19,      ///< within ±2e19 — float squares overflow, doubles do not
  Huge39,      ///< within ±1e39 — narrowing to float overflows
  Tiny40,      ///< within ±1e-40 — the float subnormal range
};

double random_coord(CoordMode mode, Rng& rng) {
  switch (mode) {
    case CoordMode::Continuous: return rng.uniform01() * 100.0 - 50.0;
    case CoordMode::Grid: return static_cast<double>(rng.below(4));
    case CoordMode::Denormal: return (rng.uniform01() * 2.0 - 1.0) * 5e-308;
    case CoordMode::Offset: return 1e8 + (rng.uniform01() * 2.0 - 1.0);
    case CoordMode::TinySquares: return (rng.uniform01() * 2.0 - 1.0) * 2e-161;
    case CoordMode::Huge155: return 1e155 * (1.0 + 1e-3 * (rng.uniform01() * 2.0 - 1.0));
    case CoordMode::Huge160: return 1e160 * (1.0 + 1e-7 * (rng.uniform01() * 2.0 - 1.0));
    case CoordMode::Offset4: return 1e4 + 10.0 * (rng.uniform01() * 2.0 - 1.0);
    case CoordMode::Huge19: return 2e19 * (rng.uniform01() * 2.0 - 1.0);
    case CoordMode::Huge39: return 1e39 * (rng.uniform01() * 2.0 - 1.0);
    case CoordMode::Tiny40: return 1e-40 * (rng.uniform01() * 2.0 - 1.0);
  }
  return 0.0;
}

PointD random_point(std::size_t dim, CoordMode mode, Rng& rng) {
  std::vector<double> coords(dim);
  for (std::size_t j = 0; j < dim; ++j) coords[j] = random_coord(mode, rng);
  return PointD(std::move(coords));
}

/// Queries in the batch leg: enough for two full query blocks plus one.
constexpr std::size_t kBatchQueries = 2 * simd::kQueryBlock + 1;

struct Trial {
  VectorShard shard;
  PointD query;
  std::vector<PointD> batch;  ///< kBatchQueries queries, batch[0] == query
  std::size_t dim = 1;
  std::size_t ell = 1;
  MetricKind kind = MetricKind::Euclidean;
  CoordMode mode = CoordMode::Continuous;
};

/// Fills the batch: t.query, then queries drawn from their own stream (so
/// the trial's other draws stay as they were).  One batch query repeats
/// another, so a block also scores two identical queries.
void add_batch(Trial& t, std::uint64_t seed) {
  Rng rng(seed);
  t.batch.assign(1, t.query);
  while (t.batch.size() < kBatchQueries) {
    t.batch.push_back(t.batch.size() == simd::kQueryBlock + 2
                          ? t.batch[rng.below(t.batch.size())]
                          : random_point(t.dim, t.mode, rng));
  }
}

/// The reference answer for every batch query; element 0 is the answer
/// for t.query.
std::vector<std::vector<Key>> reference_batch(const Trial& t) {
  std::vector<std::vector<Key>> expected;
  for (const PointD& query : t.batch) {
    expected.push_back(reference_top_ell(t.shard, query, t.kind, t.ell));
  }
  return expected;
}

/// Deterministic shape from (seed, index): `index` walks the dimension
/// table and 48 consecutive sizes (every tail residue mod 16, three times
/// over), the seed drives everything else.
Trial make_trial(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed);
  Trial t;
  t.dim = kDims[index % std::size(kDims)];
  t.kind = kAllKinds[rng.below(4)];
  switch (rng.below(5)) {
    case 0: t.mode = CoordMode::Grid; break;
    case 1: t.mode = CoordMode::Denormal; break;
    default: t.mode = CoordMode::Continuous; break;
  }
  // Small-n trials cross n < one vector / n < one prefilter block; the
  // rest sweep 160..207 so n mod 16 covers every residue.
  const std::size_t n =
      (index % 7 == 0) ? 1 + index % 33 : 160 + static_cast<std::size_t>(index % 48);
  std::uint64_t next_id = 1;
  t.shard.points.reserve(n);
  t.shard.ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!t.shard.points.empty() && rng.bernoulli(0.2)) {
      // Duplicate under a fresh id: identical distance, id-only tie-break.
      t.shard.points.push_back(t.shard.points[rng.below(t.shard.points.size())]);
    } else {
      t.shard.points.push_back(random_point(t.dim, t.mode, rng));
    }
    t.shard.ids.push_back(next_id);
    next_id += 1 + rng.below(5);
  }
  switch (rng.below(4)) {
    case 0: t.ell = 1; break;
    case 1: t.ell = 1 + rng.below(64); break;
    case 2: t.ell = n; break;
    default: t.ell = n + 1 + rng.below(8); break;  // ℓ > n
  }
  t.query = random_point(t.dim, t.mode, rng);
  add_batch(t, seed ^ 0xBA7C4ULL);
  return t;
}

/// Every mode the screened-shape leg draws: the tie and underflow modes of
/// the randomized trials, gradual underflow, the two offsets, and the
/// float and double magnitude modes.
constexpr CoordMode kScreenedModes[] = {
    CoordMode::Continuous, CoordMode::Grid,    CoordMode::Denormal, CoordMode::TinySquares,
    CoordMode::Offset,     CoordMode::Offset4, CoordMode::Huge19,   CoordMode::Huge39,
    CoordMode::Tiny40,     CoordMode::Huge155, CoordMode::Huge160};

/// A shape the vector ISAs score through the two-stage screen: d > 16,
/// three full tiles plus a tail (so full heaps meet later tiles), and ℓ of
/// 1, 32 or 300 (> one tile: heaps fill across a tile edge).  `index`
/// walks metric × ℓ × mode; the dimension and the tail come from it too.
Trial make_screened_trial(std::uint64_t seed, std::uint64_t index) {
  constexpr std::size_t kEllChoices[] = {1, 32, 300};
  constexpr std::size_t kScreenedDims[] = {17, 33, 64};
  Rng rng(seed);
  Trial t;
  t.kind = index % 2 == 0 ? MetricKind::Euclidean : MetricKind::SquaredEuclidean;
  t.ell = kEllChoices[(index / 2) % 3];
  t.mode = kScreenedModes[(index / 6) % std::size(kScreenedModes)];
  t.dim = kScreenedDims[index % 3];
  const std::size_t n = 3 * simd::kTile + 1 + index % 47;
  for (std::size_t i = 0; i < n; ++i) {
    t.shard.points.push_back(random_point(t.dim, t.mode, rng));
    t.shard.ids.push_back(3 + 2 * i);
  }
  t.query = random_point(t.dim, t.mode, rng);
  add_batch(t, seed ^ 0xBA7C4ULL);
  return t;
}

/// One tombstone map for a trial, with the reference answers over its live
/// rows for the first kQueryBlock batch queries (element 0 is t.query's).
struct DeadCase {
  std::string label;
  std::vector<std::uint8_t> dead;
  std::vector<std::vector<Key>> expected;
};

/// The case for one map: the functor oracle over the rows it leaves live —
/// what a store rebuilt after the deletes would answer.
DeadCase make_dead_case(const Trial& t, std::string label, std::vector<std::uint8_t> dead) {
  VectorShard live;
  for (std::size_t i = 0; i < dead.size(); ++i) {
    if (dead[i] != 0) continue;
    live.points.push_back(t.shard.points[i]);
    live.ids.push_back(t.shard.ids[i]);
  }
  DeadCase c{std::move(label), std::move(dead), {}};
  for (std::size_t q = 0; q < simd::kQueryBlock; ++q) {
    c.expected.push_back(reference_top_ell(live, t.batch[q], t.kind, t.ell));
  }
  return c;
}

/// Tombstone maps for a trial: random ones at densities 0, 1/64, 1/4 and
/// 1/2, then dead rows in the heap-fill phase, in the last (masked tail)
/// prefilter block, everywhere, and everywhere but ℓ − 1 rows.
std::vector<DeadCase> dead_cases(const Trial& t, std::uint64_t seed) {
  const std::size_t n = t.shard.points.size();
  Rng rng(seed);
  std::vector<DeadCase> cases;
  for (const std::uint64_t per_64 : {0, 1, 16, 32}) {
    std::vector<std::uint8_t> dead(n);
    for (auto& flag : dead) flag = rng.below(64) < per_64 ? 1 : 0;
    cases.push_back(make_dead_case(t, "density " + std::to_string(per_64) + "/64", dead));
  }
  std::vector<std::uint8_t> fill(n, 0);
  for (std::size_t i = 0; i < n && i < 2 * t.ell; i += 2) fill[i] = 1;
  cases.push_back(make_dead_case(t, "fill phase", fill));
  std::vector<std::uint8_t> tail(n, 0);
  for (std::size_t i = n - (n % 16 == 0 ? 16 : n % 16); i < n; ++i) {
    tail[i] = rng.bernoulli(0.5) ? 1 : 0;
  }
  cases.push_back(make_dead_case(t, "masked tail", tail));
  cases.push_back(make_dead_case(t, "all dead", std::vector<std::uint8_t>(n, 1)));
  std::vector<std::uint8_t> sparse(n, 1);
  for (std::size_t k = 0; k + 1 < t.ell && k < n; ++k) sparse[rng.below(n)] = 0;
  cases.push_back(make_dead_case(t, "live < ell", sparse));
  return cases;
}

/// Scores `store` under one case's tombstone map through both masked entry
/// points — fused_top_ell_batch for nq = 1, 3 and 8, and RangeTopEll over
/// a random decomposition — and asserts byte parity with the case's
/// live-rows reference.
void check_dead_case(const Trial& t, const FlatStore& store, const DeadCase& c,
                     std::uint64_t range_seed) {
  SCOPED_TRACE(c.label);
  KernelScratch scratch;
  std::vector<std::vector<Key>> got;
  for (const std::size_t nq : {std::size_t{1}, std::size_t{3}, simd::kQueryBlock}) {
    fused_top_ell_batch(store, std::span<const PointD>(t.batch.data(), nq), t.ell, t.kind, got,
                        scratch, c.dead.data());
    ASSERT_EQ(got.size(), nq);
    for (std::size_t q = 0; q < nq; ++q) {
      ASSERT_NO_FATAL_FAILURE(
          expect_same_keys(c.expected[q], got[q],
                           "masked batch nq=" + std::to_string(nq) + " q=" + std::to_string(q)));
    }
  }
  Rng rng(range_seed);
  RangeTopEll scorer(store, t.query, t.ell, t.kind, scratch, c.dead.data());
  for (std::size_t lo = 0; lo < store.size();) {
    const std::size_t hi = lo + 1 + rng.below(store.size() - lo);
    scorer.score_range(lo, hi);
    lo = hi;
  }
  std::vector<Key> ranged;
  scorer.finish(ranged);
  expect_same_keys(c.expected[0], ranged, "masked range");
}

/// Scores the trial on one pinned ISA via every kernel entry point and
/// asserts byte parity with the reference (`expected_batch` from
/// reference_batch, `dead` from dead_cases).  `range_seed` drives the
/// RangeTopEll decompositions (same stream across ISAs → same ranges).
void check_isa(const Trial& t, const std::vector<std::vector<Key>>& expected_batch,
               const std::vector<DeadCase>& dead, simd::Isa isa, std::uint64_t range_seed) {
  SCOPED_TRACE(simd::isa_name(isa));
  ForcedIsa pin(isa);
  const FlatStore store(t.shard.points, t.shard.ids);
  ASSERT_EQ(t.batch.size(), kBatchQueries);
  const std::vector<Key>& expected = expected_batch[0];

  {  // fused kernel, one query
    const auto got = fused_top_ell(store, t.query, t.ell, t.kind);
    expect_same_keys(expected, got, "fused");
  }

  {  // fused kernel over every batch size 1 … 2Q+1: each remainder of the
     // query block, after zero, one and two full blocks
    KernelScratch scratch;
    std::vector<std::vector<Key>> got;
    for (std::size_t nq = 1; nq <= kBatchQueries; ++nq) {
      fused_top_ell_batch(store, std::span<const PointD>(t.batch.data(), nq), t.ell, t.kind, got,
                          scratch);
      ASSERT_EQ(got.size(), nq);
      for (std::size_t q = 0; q < nq; ++q) {
        expect_same_keys(expected_batch[q], got[q],
                         "batch nq=" + std::to_string(nq) + " q=" + std::to_string(q));
      }
    }
  }

  {  // RangeTopEll over a random decomposition of [0, n) — the kd-hybrid
     // leaf entry point; skipping nothing, so the result must be exact.
    Rng rng(range_seed);
    KernelScratch scratch;
    RangeTopEll scorer(store, t.query, t.ell, t.kind, scratch);
    std::size_t lo = 0;
    while (lo < store.size()) {
      const std::size_t hi = lo + 1 + rng.below(store.size() - lo);
      scorer.score_range(lo, hi);
      lo = hi;
    }
    std::vector<Key> got;
    scorer.finish(got);
    expect_same_keys(expected, got, "range");
  }

  {  // materializing kernel + separate selection
    std::vector<Key> scored;
    score_store(store, t.query, t.kind, scored);
    const auto got = top_ell_smallest(std::span<const Key>(scored), t.ell);
    expect_same_keys(expected, got, "score_store");
  }

  // Tombstone maps: dead rows must never reach a heap on any ISA.
  for (const DeadCase& c : dead) ASSERT_NO_FATAL_FAILURE(check_dead_case(t, store, c, range_seed));
}

void run_trial(std::uint64_t seed, std::uint64_t index, const std::vector<simd::Isa>& isas) {
  const Trial t = make_trial(seed, index);
  std::ostringstream trace;
  trace << "repro: run_trial(0x" << std::hex << seed << std::dec << ", " << index
        << ") — dim=" << t.dim << " n=" << t.shard.points.size() << " (mod16="
        << t.shard.points.size() % 16 << ") metric=" << metric_kind_name(t.kind)
        << " ell=" << t.ell << " mode=" << static_cast<int>(t.mode);
  SCOPED_TRACE(trace.str());
  const auto expected = reference_batch(t);
  const auto dead = dead_cases(t, seed ^ 0xDEADULL);
  for (const simd::Isa isa : isas) check_isa(t, expected, dead, isa, seed ^ 0x5EEDULL);
}

TEST(SimdParity, DispatchReportsCoherently) {
  const auto isas = supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::Scalar);
  // Un-forced dispatch honours DKNN_FORCE_ISA when the environment sets it
  // (the CI force-scalar leg does), else the widest supported level — so
  // assert force/unpin restores whatever this process started with.
  const simd::Isa unforced = simd::active_isa();
  EXPECT_TRUE(simd::isa_supported(unforced));
  for (const simd::Isa isa : isas) {
    EXPECT_EQ(simd::parse_isa(simd::isa_name(isa)), isa);
    ForcedIsa pin(isa);
    EXPECT_EQ(simd::active_isa(), isa);
    EXPECT_STREQ(simd::kernel_ops().name, simd::isa_name(isa));
  }
  EXPECT_EQ(simd::active_isa(), unforced);
  EXPECT_FALSE(simd::parse_isa("sse9").has_value());
#if defined(__x86_64__)
  // Both vector tables execute FMA in their bound op, so dispatch (and with
  // it DKNN_FORCE_ISA, which aborts on an unsupported pin) must not offer
  // either on a CPU without the fma bit.
  if (__builtin_cpu_supports("fma") == 0) {
    EXPECT_FALSE(simd::isa_supported(simd::Isa::Avx2));
    EXPECT_FALSE(simd::isa_supported(simd::Isa::Avx512));
  }
#endif
  if (isas.size() < simd::kIsaCount) {
    std::printf("[  NOTE    ] CPU supports %zu/%zu ISA levels — unsupported ones skipped\n",
                isas.size(), simd::kIsaCount);
  }
}

TEST(SimdParity, RandomizedTrials) {
  // ≥1000 seeded trials (the acceptance floor); each walks the dimension
  // table and the n-residue sweep deterministically, so any failure's
  // SCOPED_TRACE seed+index replays exactly.
  constexpr std::uint64_t kBaseSeed = 0x51DDBA17ULL;
  const auto isas = supported_isas();
  for (std::uint64_t i = 0; i < 1050; ++i) run_trial(kBaseSeed + i, i, isas);
}

TEST(SimdParity, ScreenedMultiTileShapes) {
  // Every metric × ℓ × mode of make_screened_trial, each through every
  // entry point of check_isa (batches 1 … 2Q+1, tombstone maps) on every
  // ISA.  The scalar reference never screens, so any bound that rejects a
  // row it should keep — a NaN bound compared ordered, or an error term
  // too small for a mode's rounding — changes the keys.
  constexpr std::uint64_t kBaseSeed = 0x5C4EE7ULL;
  const auto isas = supported_isas();
  for (std::uint64_t i = 0; i < 2 * 3 * std::size(kScreenedModes); ++i) {
    const Trial t = make_screened_trial(kBaseSeed + i, i);
    std::ostringstream trace;
    trace << "repro: make_screened_trial(0x" << std::hex << kBaseSeed + i << std::dec << ", "
          << i << ") — dim=" << t.dim << " n=" << t.shard.points.size()
          << " metric=" << metric_kind_name(t.kind) << " ell=" << t.ell
          << " mode=" << static_cast<int>(t.mode);
    SCOPED_TRACE(trace.str());
    const auto expected = reference_batch(t);
    const auto dead = dead_cases(t, kBaseSeed ^ 0xDEADULL ^ i);
    for (const simd::Isa isa : isas) check_isa(t, expected, dead, isa, kBaseSeed ^ i);
  }
}

/// Storage for calling tile_bounds directly: a simd::ScreenTile over its
/// own buffers, and screen rows for one query block.
struct ScreenBuffers {
  explicit ScreenBuffers(std::size_t dim)
      : cols(dim * simd::kTile),
        norms(simd::kTile),
        centre(dim),
        queries(simd::kQueryBlock * simd::screen_query_stride(dim)),
        rows(simd::kQueryBlock * simd::kTile) {
    tile = simd::ScreenTile{cols.data(), norms.data(), centre.data(), queries.data()};
  }
  std::vector<float> cols;
  std::vector<float> norms;
  std::vector<double> centre;
  std::vector<float> queries;
  std::vector<float> rows;
  simd::ScreenTile tile;
};

/// Exact raw scores and screen values of every (query, point) pair of one
/// tile, one query block at a time, through one table's ops; row b of a
/// block lands at b · kTile of `exact` and of `screen.rows`.  The first
/// block (q0 = 0) narrows the tile, the later ones reuse it.
void score_and_screen_tile(const simd::KernelOps& ops, const std::vector<const double*>& cols,
                           const std::vector<PointD>& queries, std::size_t q0, std::size_t dim,
                           std::size_t t0, std::size_t m, ScreenBuffers& screen,
                           std::vector<double>& exact) {
  const double* block[simd::kQueryBlock];
  for (std::size_t b = 0; b < simd::kQueryBlock; ++b) block[b] = queries[q0 + b].coords.data();
  ops.tile_scores(MetricKind::SquaredEuclidean, cols.data(), block, simd::kQueryBlock, dim, t0, m,
                  exact.data(), simd::kTile);
  ops.tile_bounds(cols.data(), block, simd::kQueryBlock, dim, t0, m, screen.tile, q0 == 0,
                  screen.rows.data(), simd::kTile);
}

std::vector<const double*> column_pointers(const FlatStore& store) {
  std::vector<const double*> cols(store.dim());
  for (std::size_t j = 0; j < store.dim(); ++j) cols[j] = store.dim_coords(j).data();
  return cols;
}

TEST(SimdParity, BoundsNeverExceedExactScores) {
  // The screen's soundness condition, checked directly on each table that
  // carries the bound ops: no screen value is above the exact raw score
  // tile_scores produces for the same pair.  NaN compares false, so it
  // passes (it never rejects); +∞ over a finite score would fail.  Both
  // the call that narrows the tile and a later call that reuses it are
  // checked, at every mode and at d > 16 around the vector widths.
  std::size_t checked_tables = 0;
  for (const simd::Isa isa : supported_isas()) {
    const ForcedIsa pin(isa);
    const simd::KernelOps& ops = simd::kernel_ops();
    if (ops.tile_bounds == nullptr) continue;  // the scalar reference never screens
    ++checked_tables;
    for (const CoordMode mode : kScreenedModes) {
      for (const std::size_t dim : {17, 31, 64, 65}) {
        Rng rng(0xB0DULL + dim * 16 + static_cast<std::uint64_t>(mode));
        const std::size_t n = simd::kTile + 37;
        std::vector<PointD> points;
        std::vector<PointId> ids;
        for (std::size_t i = 0; i < n; ++i) {
          points.push_back(random_point(dim, mode, rng));
          ids.push_back(i);
        }
        // Duplicates of stored points: distance 0 where the norms are largest.
        std::vector<PointD> queries = {points[0], points[n - 1]};
        while (queries.size() < 2 * simd::kQueryBlock) queries.push_back(random_point(dim, mode, rng));
        const FlatStore store(points, ids);
        const std::vector<const double*> cols = column_pointers(store);
        std::vector<double> exact(simd::kQueryBlock * simd::kTile);
        ScreenBuffers screen(dim);
        for (std::size_t t0 = 0; t0 < n; t0 += simd::kTile) {
          const std::size_t m = std::min(simd::kTile, n - t0);
          for (std::size_t q0 = 0; q0 < queries.size(); q0 += simd::kQueryBlock) {
            score_and_screen_tile(ops, cols, queries, q0, dim, t0, m, screen, exact);
            for (std::size_t b = 0; b < simd::kQueryBlock; ++b) {
              for (std::size_t i = 0; i < m; ++i) {
                const double lb = screen.rows[b * simd::kTile + i];
                const double score = exact[b * simd::kTile + i];
                ASSERT_FALSE(lb > score)
                    << simd::isa_name(isa) << " mode=" << static_cast<int>(mode)
                    << " dim=" << dim << " query=" << q0 + b << " row=" << t0 + i
                    << " bound=" << lb << " exact=" << score;
              }
            }
          }
        }
      }
    }
  }
  if (checked_tables == 0) {
    std::printf("[  NOTE    ] no supported ISA carries the bound ops — nothing to check\n");
  }
}

TEST(SimdParity, BoundsAreTight) {
  // A sound screen that rejects nothing passes every other leg, so this
  // one pins how much it rejects, at the offline shape: perfbench's d = 64
  // Gaussian mixture, ℓ = 32, four tiles, two query blocks, as drawn and
  // shifted by +1e4 in every coordinate (where only the translation keeps
  // float from cancelling).  Per (query, tile), the pairs whose screen
  // value lies above the tile's exact ℓ-th score must be at least 90% of
  // the pairs whose exact score does.
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kEll = 32;
  constexpr std::size_t kPoints = 4 * simd::kTile;
  std::size_t checked_tables = 0;
  for (const simd::Isa isa : supported_isas()) {
    const ForcedIsa pin(isa);
    const simd::KernelOps& ops = simd::kernel_ops();
    if (ops.tile_bounds == nullptr) continue;  // the scalar reference never screens
    ++checked_tables;
    for (const double offset : {0.0, 1e4}) {
      Rng rng(8);
      const GaussianMixture mixture(ClusterSpec{kDim, 16, 10.0, 12.0}, rng);
      std::vector<PointD> points;
      for (LabeledPoint& sample : mixture.sample(kPoints, rng)) points.push_back(std::move(sample.x));
      std::vector<PointD> queries;
      for (LabeledPoint& sample : mixture.sample(2 * simd::kQueryBlock, rng)) {
        queries.push_back(std::move(sample.x));
      }
      for (std::vector<PointD>* set : {&points, &queries}) {
        for (PointD& p : *set) {
          for (double& x : p.coords) x += offset;
        }
      }
      std::vector<PointId> ids(kPoints);
      for (std::size_t i = 0; i < kPoints; ++i) ids[i] = i;
      const FlatStore store(points, ids);
      const std::vector<const double*> cols = column_pointers(store);
      std::vector<double> exact(simd::kQueryBlock * simd::kTile);
      ScreenBuffers screen(kDim);
      std::size_t exact_rejects = 0;
      std::size_t screen_rejects = 0;
      for (std::size_t t0 = 0; t0 < kPoints; t0 += simd::kTile) {
        for (std::size_t q0 = 0; q0 < queries.size(); q0 += simd::kQueryBlock) {
          score_and_screen_tile(ops, cols, queries, q0, kDim, t0, simd::kTile, screen, exact);
          for (std::size_t b = 0; b < simd::kQueryBlock; ++b) {
            const double* row = exact.data() + b * simd::kTile;
            std::vector<double> sorted(row, row + simd::kTile);
            std::nth_element(sorted.begin(), sorted.begin() + (kEll - 1), sorted.end());
            const double ell_th = sorted[kEll - 1];
            for (std::size_t i = 0; i < simd::kTile; ++i) {
              exact_rejects += row[i] > ell_th ? 1 : 0;
              screen_rejects += screen.rows[b * simd::kTile + i] > ell_th ? 1 : 0;
            }
          }
        }
      }
      EXPECT_GE(static_cast<double>(screen_rejects), 0.9 * static_cast<double>(exact_rejects))
          << simd::isa_name(isa) << " offset=" << offset << ": the screen rejects "
          << screen_rejects << " of the " << exact_rejects << " pairs an exact screen would";
    }
  }
  if (checked_tables == 0) {
    std::printf("[  NOTE    ] no supported ISA carries the bound ops — nothing to check\n");
  }
}

TEST(SimdParity, EveryTailResidueTinyN) {
  // n = 1..48 at the canonical d=8: every residue mod 16 three times,
  // including n below one AVX2 vector, one AVX-512 vector, and one
  // prefilter block — the pure-tail regime where masked loads do all the
  // work.
  const auto isas = supported_isas();
  Rng rng(0xA11ULL);
  for (std::size_t n = 1; n <= 48; ++n) {
    Trial t;
    t.dim = 8;
    t.kind = kAllKinds[n % 4];
    t.ell = 1 + n / 2;
    for (std::size_t i = 0; i < n; ++i) {
      t.shard.points.push_back(random_point(8, CoordMode::Continuous, rng));
      t.shard.ids.push_back(100 + 3 * i);
    }
    t.query = random_point(8, CoordMode::Continuous, rng);
    add_batch(t, 0xBA7C4ULL + n);
    std::ostringstream trace;
    trace << "n=" << n << " metric=" << metric_kind_name(t.kind);
    SCOPED_TRACE(trace.str());
    const auto expected = reference_batch(t);
    const auto dead = dead_cases(t, 0xDEADULL + n);
    for (const simd::Isa isa : isas) check_isa(t, expected, dead, isa, 0xFEEDULL + n);
  }
}

TEST(SimdParity, DenormalSaturatedAllMetrics) {
  // Every coordinate subnormal-adjacent: squared diffs underflow to 0 or
  // subnormals, producing mass ties — selection must still match the
  // functor reference bit for bit on every ISA (no FTZ/DAZ divergence).
  const auto isas = supported_isas();
  Rng rng(0xDE400ULL);
  for (const MetricKind kind : kAllKinds) {
    Trial t;
    t.dim = 11;
    t.kind = kind;
    t.ell = 25;
    t.mode = CoordMode::Denormal;
    for (std::size_t i = 0; i < 200; ++i) {
      t.shard.points.push_back(random_point(t.dim, t.mode, rng));
      t.shard.ids.push_back(1 + 7 * i);
    }
    t.query = random_point(t.dim, t.mode, rng);
    add_batch(t, 0xDE402ULL);
    SCOPED_TRACE(metric_kind_name(kind));
    const auto expected = reference_batch(t);
    const auto dead = dead_cases(t, 0xDE403ULL);
    for (const simd::Isa isa : isas) check_isa(t, expected, dead, isa, 0xDE401ULL);
  }
}

TEST(SimdParity, TombstoneMaskAcrossTiles) {
  // Three full 256-row tiles plus a tail, with the middle tile entirely
  // dead between live ones; with ℓ = 300 the heap fills across a tile edge
  // while rows are dying.
  const auto isas = supported_isas();
  Rng rng(0x70BULL);
  Trial t;
  t.dim = 8;
  for (std::size_t i = 0; i < 3 * 256 + 37; ++i) {
    t.shard.points.push_back(random_point(t.dim, CoordMode::Continuous, rng));
    t.shard.ids.push_back(5 + 2 * i);
  }
  t.query = random_point(t.dim, CoordMode::Continuous, rng);
  add_batch(t, 0x70CULL);
  std::vector<std::uint8_t> dead(t.shard.points.size());
  for (std::size_t i = 0; i < dead.size(); ++i) {
    dead[i] = (i >= 256 && i < 512) || rng.below(4) == 0;
  }
  const FlatStore store(t.shard.points, t.shard.ids);
  for (const MetricKind kind : kAllKinds) {
    for (const std::size_t ell : {1u, 16u, 300u}) {
      t.kind = kind;
      t.ell = ell;
      const DeadCase c = make_dead_case(t, "dead middle tile", dead);
      for (const simd::Isa isa : isas) {
        const ForcedIsa pin(isa);
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " " + metric_kind_name(kind) +
                     " ell=" + std::to_string(ell));
        ASSERT_NO_FATAL_FAILURE(check_dead_case(t, store, c, 0x70DULL + ell));
      }
    }
  }
}

TEST(SimdParity, HybridAndParallelDriverPerIsa) {
  // The full serving path — kd-tree hybrid pruning and the work-stealing
  // parallel brute path — under each pinned ISA, against the functor
  // reference.  Covers the dispatch hand-off inside pool workers and the
  // RangeTopEll threshold()-driven subtree skipping.
  const auto isas = supported_isas();
  Rng rng(0xD121BULL);
  auto points = uniform_points(1800, 6, 50.0, rng);
  const auto shards = make_vector_shards(std::move(points), 3, PartitionScheme::RoundRobin, rng);
  const auto queries = uniform_points(4, 6, 50.0, rng);
  const std::uint64_t ell = 31;
  for (const MetricKind kind : kAllKinds) {
    std::vector<std::vector<std::vector<Key>>> expected(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const auto& shard : shards) {
        expected[q].push_back(reference_top_ell(shard, queries[q], kind, ell));
      }
    }
    for (const simd::Isa isa : isas) {
      std::ostringstream trace;
      trace << simd::isa_name(isa) << " metric=" << metric_kind_name(kind);
      SCOPED_TRACE(trace.str());
      ForcedIsa pin(isa);
      for (const ScoringPolicy policy : {ScoringPolicy::Brute, ScoringPolicy::Tree}) {
        const auto indexes = make_shard_indexes(shards, policy, 32);
        const auto got = score_vector_shards_batch(indexes, queries, ell, kind,
                                                   BatchScoringConfig{.threads = 3});
        for (std::size_t q = 0; q < queries.size(); ++q) {
          for (std::size_t m = 0; m < shards.size(); ++m) {
            expect_same_keys(expected[q][m], got[q][m],
                             policy == ScoringPolicy::Tree ? "tree" : "brute");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dknn
