#pragma once
/// \file flat_store.hpp
/// \brief Contiguous SoA (structure-of-arrays) storage for one machine's
///        d-dimensional shard.
///
/// The AoS representation (`std::vector<PointD>`) pays one heap allocation
/// and one pointer indirection per point — fine for protocol code, hostile
/// to the scoring hot loop that §3's "local computation" discussion says
/// dominates real wall-clock.  `FlatStore` keeps all n×d coordinates in one
/// dimension-major buffer (`coords[j·n + i]` = coordinate j of point i)
/// plus an id array aligned with point index, so the distance kernels in
/// data/kernels.hpp stream each coordinate column contiguously and
/// auto-vectorize across points (the PANDA-style layout, see PAPERS.md).
///
/// A store is immutable after construction: build it once per shard, score
/// any number of queries against it.
///
/// Two storage modes share one read API:
///   * owned — the constructors pack coordinates into a private buffer with
///     column stride == n (the historical layout);
///   * shared view — rows [0, n) of caller-provided capacity-strided
///     buffers (column stride ≥ n).  The serve layer's incremental delta
///     mirror appends row n+1 into the same buffers and publishes a new
///     view with a bumped n; rows below any published n are frozen by
///     contract, so readers of old views never observe a mutation.
/// Every kernel walks columns via dim_coords(), which already carries the
/// stride, so both modes score byte-identically.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/point.hpp"
#include "support/panic.hpp"

namespace dknn {

/// One machine's shard as contiguous dimension-major coordinates + ids.
class FlatStore {
public:
  /// Empty store of dimension `dim` (scoring it yields no keys).
  FlatStore() = default;
  explicit FlatStore(std::size_t dim) : d_(dim) {}

  /// Packs `points` (all of dimension points[0].dim()) and their aligned
  /// ids.  Empty `points` gives an empty store of dimension 0.  Throws
  /// NonFiniteCoordinateError (data/validate.hpp) on a NaN or ±∞
  /// coordinate.
  FlatStore(std::span<const PointD> points, std::span<const PointId> ids);

  /// Shared-view mode: rows [0, n) of capacity-strided column buffers
  /// (`coords[j·stride + i]`, coords.size() ≥ dim·stride, ids.size() ≥ n,
  /// stride ≥ n).  The store co-owns the buffers; the writer may keep
  /// appending rows ≥ n into them (disjoint elements — no data race) but
  /// must never touch rows below the largest published n.
  FlatStore(std::shared_ptr<const std::vector<double>> coords,
            std::shared_ptr<const std::vector<PointId>> ids, std::size_t n, std::size_t dim,
            std::size_t stride);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t dim() const { return d_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  /// Coordinate j of every point — one contiguous column of n doubles.
  [[nodiscard]] std::span<const double> dim_coords(std::size_t j) const {
    DKNN_ASSERT(j < d_, "FlatStore: dimension out of range");
    return {coord_base() + j * stride_, n_};
  }

  [[nodiscard]] double coord(std::size_t i, std::size_t j) const {
    DKNN_ASSERT(i < n_ && j < d_, "FlatStore: index out of range");
    return coord_base()[j * stride_ + i];
  }

  [[nodiscard]] std::span<const PointId> ids() const { return {id_base(), n_}; }
  [[nodiscard]] PointId id(std::size_t i) const {
    DKNN_ASSERT(i < n_, "FlatStore: index out of range");
    return id_base()[i];
  }

  /// Gathers point i back into AoS form (tests / debugging; O(d)).
  [[nodiscard]] PointD point(std::size_t i) const;

private:
  [[nodiscard]] const double* coord_base() const {
    return shared_coords_ ? shared_coords_->data() : coords_.data();
  }
  [[nodiscard]] const PointId* id_base() const {
    return shared_ids_ ? shared_ids_->data() : ids_.data();
  }

  std::size_t n_ = 0;
  std::size_t d_ = 0;
  std::size_t stride_ = 0;      ///< column stride; == n_ in owned mode
  std::vector<double> coords_;  ///< owned mode: coords_[j * n_ + i]
  std::vector<PointId> ids_;
  std::shared_ptr<const std::vector<double>> shared_coords_;  ///< view mode
  std::shared_ptr<const std::vector<PointId>> shared_ids_;
};

}  // namespace dknn
