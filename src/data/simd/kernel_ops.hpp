#pragma once
/// \file kernel_ops.hpp
/// \brief The contract between the generic kernel layer (data/kernels.cpp)
///        and the per-ISA scoring implementations (kernels_scalar.cpp,
///        kernels_avx2.cpp, kernels_avx512.cpp).
///
/// A `KernelOps` is a table of function pointers — tile scoring, fused
/// heap selection, the materializing sqrt epilogue, and the vector ISAs'
/// two-stage Euclidean screen (single-precision FMA lower bounds over a
/// translated float copy of each tile, then exact rescoring of the pairs
/// they cannot reject) — filled in by exactly one translation unit per
/// ISA.  Each TU is compiled with its own target flags (see CMakeLists.txt)
/// and nothing else in the binary may inline code from it, so a machine
/// without AVX-512 never executes an AVX-512 instruction as long as
/// dispatch (data/simd/dispatch.hpp) never hands out that table.
///
/// This header is included by TUs compiled at *different* ISA levels, so it
/// must not define anything the linker could merge across them: only plain
/// structs, and helpers marked `static` (internal linkage — every TU gets
/// its own copy compiled at its own level).  See README.md in this
/// directory for the full rule set.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "data/metric_kind.hpp"

namespace dknn::simd {

/// (distance, point id) — first/second order matches Key order because
/// encode_distance is strictly monotone.  Identical layout to the
/// KernelScratch::heaps element type in data/kernels.hpp.
using DistId = std::pair<double, std::uint64_t>;

/// One query's bounded max-heap, stored in caller-owned scratch.  Passed by
/// reference across the dispatch boundary; implementations update `size`.
struct HeapState {
  DistId* data = nullptr;  ///< capacity `cap` entries
  std::size_t size = 0;    ///< live entries (valid max-heap in Key order)
  std::size_t cap = 0;     ///< min(ℓ, n) — never 0 at a dispatch call
};

/// Padding contract for the tile buffers: `dist`/`raw` below must be
/// readable AND writable for `round_up(m, kTilePad)` doubles.  The vector
/// kernels full-width-store scored tails and full-width-load prefilter
/// blocks instead of running scalar remainder loops; lanes at index ≥ m are
/// scratch (their values are ignored, never NaN-trapped, and never reach
/// the heap).  data/kernels.cpp sizes its tile buffer to a multiple of
/// this, which upper-bounds every in-tile access.
inline constexpr std::size_t kTilePad = 16;

/// Most points one tile holds: every op below takes m <= kTile.  The
/// kernel layer scores each tile one query block at a time, so a block's
/// kQueryBlock rows (kTile doubles each: 16 KB in all) stay in L1 between
/// scoring and the heap updates that read them, while the tile's columns
/// (2 KB per dimension: 128 KB at d = 64) stay in L2 across the blocks.
/// A multiple of kTilePad, so round_up(m, kTilePad) <= kTile bounds every
/// padded access to a row.
inline constexpr std::size_t kTile = 256;
static_assert(kTile % kTilePad == 0, "tile rows must absorb vector tails");

/// Caller-owned storage for the vector ISAs' single-precision screen
/// (tile_bounds).  A tile's first bound call translates its rows by the
/// tile's column means and narrows them to float; every call narrows its
/// query block the same way.  Translated magnitudes below 2⁻⁶³ narrow to 0
/// (data/simd/README.md, rule 8).  Entries past a tile's m rows are
/// scratch.
struct ScreenTile {
  float* cols = nullptr;     ///< d rows of kTile floats: the tile's rows, translated and narrowed
  float* norms = nullptr;    ///< kTile floats: each narrowed row's squared norm
  double* centre = nullptr;  ///< d doubles: the tile's translation (its column means)
  float* queries = nullptr;  ///< kQueryBlock rows of screen_query_stride(d) floats: the narrowed block
};

/// Largest dimensionality every table scores with a fully unrolled
/// register-accumulating kernel (a compile-time trip count per d); larger d
/// runs a dynamic-dimension loop, and the Euclidean family's batches may
/// take the two-stage screen (tile_bounds + bounded_update).
inline constexpr std::size_t kMaxFixedDim = 16;

/// Most queries one tile_scores call scores together.  The vector kernels
/// load each column vector once and feed it to one accumulator per query,
/// so a full block costs one column pass instead of kQueryBlock.
inline constexpr std::size_t kQueryBlock = 8;

/// One ISA's scoring implementation.
struct KernelOps {
  const char* name;  ///< "scalar" / "avx2" / "avx512"

  /// Raw scores of queries[0, nq) against points [t0, t0 + m) of the
  /// column set, 1 <= nq <= kQueryBlock: query b's scores land in the row
  /// dist[b * stride, b * stride + m).  Squared sums for the Euclidean
  /// family (sqrt is applied lazily during selection), direct values for
  /// L1/L∞.  Each (query, point) pair accumulates in ascending dimension
  /// order with one rounding per operation — the exact operation sequence
  /// of the metric.hpp functors — in an accumulator no other query
  /// touches, so every ISA is byte-identical to the scalar reference (no
  /// FMA, no reassociation) whatever the block size.  Every row obeys the
  /// kTilePad contract above, so `stride` must be at least
  /// round_up(m, kTilePad) when nq > 1.
  void (*tile_scores)(MetricKind kind, const double* const* cols, const double* const* queries,
                      std::size_t nq, std::size_t d, std::size_t t0, std::size_t m,
                      double* dist, std::size_t stride);

  /// Streams one scored tile into the bounded heap, updating `threshold`
  /// (the raw-domain rejection bound: +∞ until the heap fills, then
  /// heap-top-derived).  For Euclidean, sqrt is applied only to candidates
  /// that survive the threshold prefilter; selection compares exact sqrt
  /// values, so parity with the AoS path is bit-exact.  `raw` obeys the
  /// kTilePad contract; `ids[0..m)` are the tile's point ids.  `dead` is
  /// the tile's tombstone byte map aligned with `ids` (null = every row
  /// live; each of dead[0..m) is 0 or 1, and nothing past m is read): a
  /// row flagged 1 never reaches the heap on any ISA, so the heap holds
  /// exactly what scoring the live rows alone would leave in it.
  void (*heap_update)(MetricKind kind, HeapState& heap, double& threshold, const double* raw,
                      const std::uint64_t* ids, const std::uint8_t* dead, std::size_t m);

  /// In-place sqrt over dist[0, m) — the materializing score_store's
  /// Euclidean epilogue, where *every* rank must land in the metric's
  /// domain (exactly what the fused path's lazy sqrt avoids).  IEEE-754
  /// sqrt is correctly rounded at every ISA, so vector lanes are
  /// byte-identical to the scalar loop.  `dist` obeys the kTilePad
  /// contract: lanes in [m, round_up(m, kTilePad)) may be overwritten
  /// with scratch (the masked tail load keeps them finite).
  void (*sqrt_tile)(double* dist, std::size_t m);

  /// Single-precision lower bounds on the Euclidean-family raw score (the
  /// squared sum tile_scores would produce) of queries[0, nq) against
  /// points [t0, t0 + m): query b's screen values land in the float row
  /// lb[b * stride, … + m), whose lanes up to round_up(m, 32) are scratch
  /// (so stride ≥ kTile).  With `fresh_tile` the call first translates the
  /// tile's rows by their column means and narrows them into `tile`;
  /// later calls for the same tile pass false and reuse it.  Each call
  /// narrows its queries by the same centre, then bounds
  /// ‖x̃‖² + ‖q̃‖² − 2·x̃·q̃ with float FMA accumulators minus an error term
  /// that covers the translation, the narrowing, every float rounding and
  /// the exact score's own rounding (data/simd/README.md, rule 8): a
  /// finite screen value never exceeds the exact raw score, and any
  /// overflow yields NaN or −∞, which never rejects.  Null in the scalar
  /// table, so the reference never screens.
  void (*tile_bounds)(const double* const* cols, const double* const* queries, std::size_t nq,
                      std::size_t d, std::size_t t0, std::size_t m, const ScreenTile& tile,
                      bool fresh_tile, float* lb, std::size_t stride);

  /// heap_update for a bounded tile of the Euclidean family: rows whose
  /// screen value `lb` (a tile_bounds row) is not above the entry
  /// threshold, converted to float and rounded up — NaN included — and
  /// that are live are rescored exactly (tile_scores' ascending-j
  /// sub/mul/add sequence, so their scores are byte-identical) and
  /// accepted in row order exactly as heap_update would.  A row it skips
  /// scores above the threshold, so heap_update would have dropped it too.
  /// `query` is the query's coordinates; the other arguments are
  /// heap_update's and tile_scores'.  Null in the scalar table.
  void (*bounded_update)(MetricKind kind, HeapState& heap, double& threshold, const float* lb,
                         const double* const* cols, const double* query, std::size_t d,
                         std::size_t t0, const std::uint64_t* ids, const std::uint8_t* dead,
                         std::size_t m);
};

/// Floats from one narrowed query to the next in ScreenTile::queries:
/// round_up(d, kTilePad), so a full float vector stored at any j < d
/// stays in its row.
[[nodiscard]] [[maybe_unused]] static std::size_t screen_query_stride(std::size_t d) {
  return (d + kTilePad - 1) / kTilePad * kTilePad;
}

/// Conservative squared-domain rejection threshold for the lazy-sqrt
/// Euclidean path.  Guarantee: raw > threshold  ⟹  sqrt(raw) > r, so a
/// squared score above it can be rejected without computing its sqrt.
/// Proof sketch: let r' = nextafter(r, ∞).  The returned value is ≥ r'² in
/// real arithmetic (one round-to-nearest error is undone by the final
/// next-up), so raw > threshold ⟹ √raw > r' in ℝ, and correctly-rounded
/// monotone sqrt then gives fl(√raw) ≥ r' > r.  False *accepts* merely
/// cost one sqrt and an exact comparison — never wrong answers.
///
/// `static`, not `inline`: each ISA TU must keep its own copy (an inline
/// definition is a comdat the linker may resolve to the copy compiled with
/// AVX-512 flags — an illegal-instruction trap on older machines).
[[nodiscard]] [[maybe_unused]] static double reject_threshold_sq(double r) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double up = std::nextafter(r, inf);
  return std::nextafter(up * up, inf);
}

/// The portable reference implementation (plain C++; whatever the compiler
/// auto-vectorizes at the build's baseline flags).  Always available.
[[nodiscard]] const KernelOps& scalar_ops();

/// Explicit-intrinsics implementations; defined only when the build
/// compiles the x86 variant TUs (CMake option DKNN_SIMD on an x86-64
/// toolchain — the TUs set DKNN_SIMD_X86).  Never call these directly:
/// go through dispatch.hpp, which checks CPUID first.
[[nodiscard]] const KernelOps& avx2_ops();
[[nodiscard]] const KernelOps& avx512_ops();

}  // namespace dknn::simd
