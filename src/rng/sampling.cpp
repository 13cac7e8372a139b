#include "rng/sampling.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dknn {

std::vector<std::size_t> sample_indices_without_replacement(std::size_t population,
                                                            std::size_t count, Rng& rng) {
  DKNN_REQUIRE(count <= population, "sample larger than population");
  std::vector<std::size_t> out;
  if (count == 0) return out;
  out.reserve(count);
  // Sparse Fisher–Yates: conceptually shuffle [0, population) but only track
  // displaced entries, so cost is O(count) not O(population).  They live in
  // one open-addressing table (linear probing, at most count of its ≥ 2·count
  // slots filled), so a draw allocates nothing.
  struct Entry {
    std::size_t index;
    std::size_t value;
  };
  constexpr std::size_t kEmpty = ~std::size_t{0};  // indices are < population
  const std::size_t slots = std::bit_ceil(2 * count);
  const int shift = 64 - std::countr_zero(slots);
  std::vector<Entry> displaced(slots, Entry{kEmpty, 0});
  // The slot holding `idx`, or the empty slot where it would go.
  auto slot_of = [&](std::size_t idx) -> Entry& {
    std::size_t s = static_cast<std::size_t>((idx * 0x9E3779B97F4A7C15ULL) >> shift);
    while (displaced[s].index != kEmpty && displaced[s].index != idx) s = (s + 1) & (slots - 1);
    return displaced[s];
  };
  auto value_of = [](const Entry& e, std::size_t idx) {
    return e.index == kEmpty ? idx : e.value;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(population - i));
    Entry& at_j = slot_of(j);
    out.push_back(value_of(at_j, j));
    at_j = Entry{j, value_of(slot_of(i), i)};
  }
  return out;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  DKNN_REQUIRE(n >= 1, "ZipfSampler needs at least one rank");
  DKNN_REQUIRE(s >= 0.0, "Zipf exponent must be non-negative");
  cdf_.reserve(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(acc);
  }
  for (double& v : cdf_) v /= acc;
  cdf_.back() = 1.0;  // pin the top against accumulated rounding
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace dknn
