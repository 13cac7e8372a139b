#pragma once
/// \file sampling.hpp
/// \brief Shuffles and sampling-without-replacement.
///
/// Algorithm 2's Step 3 ("each machine samples 12·log ℓ points randomly and
/// independently") is implemented as sampling without replacement via a
/// partial Fisher–Yates shuffle (O(sample) time, O(1) extra memory beyond
/// the index map for small samples).

#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"
#include "support/panic.hpp"

namespace dknn {

/// In-place Fisher–Yates shuffle.
template <typename T>
void shuffle(std::span<T> items, Rng& rng) {
  if (items.size() < 2) return;
  for (std::size_t i = items.size() - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i + 1));
    using std::swap;
    swap(items[i], items[j]);
  }
}

/// `count` distinct indices drawn uniformly from [0, population); order is
/// the selection order (itself uniform). Requires count <= population.
/// Sparse partial Fisher–Yates: O(count) time and space regardless of
/// population size.
[[nodiscard]] std::vector<std::size_t> sample_indices_without_replacement(std::size_t population,
                                                                          std::size_t count,
                                                                          Rng& rng);

/// Uniform sample without replacement of `count` elements of `items`.
template <typename T>
[[nodiscard]] std::vector<T> sample_without_replacement(std::span<const T> items, std::size_t count,
                                                        Rng& rng) {
  DKNN_REQUIRE(count <= items.size(), "sample larger than population");
  std::vector<T> out;
  out.reserve(count);
  for (std::size_t idx : sample_indices_without_replacement(items.size(), count, rng)) {
    out.push_back(items[idx]);
  }
  return out;
}

/// Zipf-distributed rank sampler over {0, …, n−1}: P(rank = r) ∝ 1/(r+1)^s.
/// The skewed-popularity generator behind bench_scenarios' zipf stanzas
/// (Debatty et al.'s online-graph evaluation is driven by exactly this
/// shape: a few hot items take most of the traffic).  Sampling is
/// inverse-CDF by binary search over a precomputed prefix table — O(n)
/// build, O(log n) per draw, deterministic given the Rng stream.
class ZipfSampler {
public:
  /// `n` ranks, exponent `s` ≥ 0 (s = 0 degenerates to uniform; s ≈ 1 is
  /// the classic web-traffic skew).
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t sample(Rng& rng) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double exponent() const { return s_; }

private:
  std::vector<double> cdf_;  ///< cdf_[r] = P(rank ≤ r), cdf_.back() == 1
  double s_ = 1.0;
};

/// Classic reservoir sampling (Vitter's Algorithm R) for streaming input;
/// used where the population size is unknown upfront.
template <typename T>
class Reservoir {
public:
  Reservoir(std::size_t capacity, Rng& rng) : capacity_(capacity), rng_(&rng) {
    DKNN_REQUIRE(capacity > 0, "reservoir capacity must be positive");
  }

  void offer(const T& item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(item);
    } else {
      const std::uint64_t j = rng_->below(seen_);
      if (j < capacity_) items_[static_cast<std::size_t>(j)] = item;
    }
  }

  [[nodiscard]] std::span<const T> items() const { return items_; }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

private:
  std::size_t capacity_;
  Rng* rng_;
  std::uint64_t seen_ = 0;
  std::vector<T> items_;
};

}  // namespace dknn
