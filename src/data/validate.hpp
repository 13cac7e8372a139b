#pragma once
/// \file validate.hpp
/// \brief Centralized precondition validators shared by every query entry
///        path — the one place the error taxonomy and texts live.
///
/// Before the KnnService facade, each entry style (the per-query AoS
/// functors, the fused batch kernels, the kd-hybrid, the serve snapshot
/// path) carried its own ad-hoc DKNN_REQUIRE with its own
/// wording, so the same user mistake — a query of the wrong dimension, an
/// ℓ of zero — failed with a different message depending on which door it
/// walked through.  These helpers give every path the *same* typed error
/// with the *same* text (tests/test_service.cpp asserts the exact strings
/// across the scalar, vector, kd-hybrid, serve, and facade entries).
///
/// Taxonomy: everything derives from InvariantError (support/panic.hpp),
/// so pre-existing EXPECT_THROW(…, InvariantError) tests and catch sites
/// keep working; the subtypes exist so callers can discriminate.
///
///   PreconditionError              bad caller input (base)
///   ├── DimensionMismatchError     query dimension ≠ dataset dimension
///   ├── InvalidEllError            ℓ = 0 where an answer is required
///   └── NonFiniteCoordinateError   a NaN or ±∞ coordinate in a point or query
///
/// ℓ-semantics note: *scoring* an ℓ of zero is well-defined (empty local
/// top-ℓ slots — ParityFuzz.EllZeroYieldsEmptySlots pins it) and the
/// protocol runners select nothing (KnnEdge.EllZeroSelectsNothing), so
/// those paths stay permissive.  The path that hands a caller an *answer*
/// — the KnnService facade, at build() and on every per-call ℓ override —
/// requires ℓ ≥ 1 through require_positive_ell so the failure is typed and
/// worded identically.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "data/point.hpp"
#include "support/panic.hpp"

namespace dknn {

/// Base class of all caller-input precondition failures.
class PreconditionError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

/// A query's dimension does not match the dataset it is scored against.
class DimensionMismatchError final : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// ℓ = 0 handed to a path that must produce an answer.
class InvalidEllError final : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// A point or query with a NaN or infinite coordinate.  Its distances are
/// NaN (or ∞ − ∞ = NaN against another infinity), which no Key can encode,
/// so it is rejected before it can be scored: by the facade's query and
/// insert entries, by SegmentStore inserts, and by the FlatStore /
/// KdRangeIndex a dataset is packed into.
class NonFiniteCoordinateError final : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// The exact text every dimension-mismatch failure carries (exposed so
/// tests can assert it without duplicating the format).
[[nodiscard]] std::string dimension_mismatch_text(std::size_t expected, std::size_t got);

/// The exact text every ℓ-must-be-positive failure carries.
[[nodiscard]] const char* positive_ell_text();

/// The exact text every non-finite-coordinate failure carries.
[[nodiscard]] const char* non_finite_coordinate_text();

/// Throws DimensionMismatchError unless got == expected.  `expected` is
/// the dataset's dimension, `got` the query's.
void require_query_dim(std::size_t expected, std::size_t got);

/// Throws InvalidEllError unless ell >= 1.
void require_positive_ell(std::uint64_t ell);

/// Throws NonFiniteCoordinateError unless every coordinate is finite.
void require_finite(const PointD& point);
void require_finite(std::span<const PointD> points);

}  // namespace dknn
