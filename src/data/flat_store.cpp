#include "data/flat_store.hpp"

#include <cmath>

#include "data/validate.hpp"

namespace dknn {

FlatStore::FlatStore(std::span<const PointD> points, std::span<const PointId> ids)
    : n_(points.size()), d_(points.empty() ? 0 : points[0].dim()), stride_(points.size()) {
  DKNN_REQUIRE(points.size() == ids.size(), "FlatStore: points/ids must align");
  coords_.resize(n_ * d_);
  ids_.assign(ids.begin(), ids.end());
  // Finiteness rides the packing pass: a separate pass would read every
  // coordinate of a large dataset a second time.
  bool finite = true;
  for (std::size_t i = 0; i < n_; ++i) {
    const PointD& p = points[i];
    DKNN_REQUIRE(p.dim() == d_, "FlatStore: all points must share one dimension");
    for (std::size_t j = 0; j < d_; ++j) {
      coords_[j * n_ + i] = p[j];
      finite &= std::isfinite(p[j]);
    }
  }
  if (!finite) throw NonFiniteCoordinateError(non_finite_coordinate_text());
}

FlatStore::FlatStore(std::shared_ptr<const std::vector<double>> coords,
                     std::shared_ptr<const std::vector<PointId>> ids, std::size_t n,
                     std::size_t dim, std::size_t stride)
    : n_(n),
      d_(dim),
      stride_(stride),
      shared_coords_(std::move(coords)),
      shared_ids_(std::move(ids)) {
  DKNN_REQUIRE(stride_ >= n_, "FlatStore: stride must cover every row");
  DKNN_REQUIRE(shared_coords_ != nullptr && shared_coords_->size() >= d_ * stride_,
               "FlatStore: shared coordinate buffer too small");
  DKNN_REQUIRE(shared_ids_ != nullptr && shared_ids_->size() >= n_,
               "FlatStore: shared id buffer too small");
}

PointD FlatStore::point(std::size_t i) const {
  DKNN_REQUIRE(i < n_, "FlatStore: index out of range");
  std::vector<double> c(d_);
  for (std::size_t j = 0; j < d_; ++j) c[j] = coord(i, j);
  return PointD(std::move(c));
}

}  // namespace dknn
