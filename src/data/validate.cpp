#include "data/validate.hpp"

#include <cmath>

namespace dknn {

std::string dimension_mismatch_text(std::size_t expected, std::size_t got) {
  return "dknn: query dimension mismatch (expected " + std::to_string(expected) + ", got " +
         std::to_string(got) + ")";
}

const char* positive_ell_text() { return "dknn: ell must be >= 1"; }

const char* non_finite_coordinate_text() {
  return "dknn: coordinates must be finite (got NaN or infinity)";
}

void require_query_dim(std::size_t expected, std::size_t got) {
  if (got != expected) throw DimensionMismatchError(dimension_mismatch_text(expected, got));
}

void require_positive_ell(std::uint64_t ell) {
  if (ell == 0) throw InvalidEllError(positive_ell_text());
}

void require_finite(const PointD& point) { require_finite(std::span<const PointD>(&point, 1)); }

void require_finite(std::span<const PointD> points) {
  // One branch per call: the loop carries no early exit, so it vectorizes.
  bool finite = true;
  for (const PointD& point : points) {
    for (const double x : point.coords) finite &= std::isfinite(x);
  }
  if (!finite) throw NonFiniteCoordinateError(non_finite_coordinate_text());
}

}  // namespace dknn
