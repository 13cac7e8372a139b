#include "serve/result_cache.hpp"

#include <bit>
#include <utility>

#include "obs/metrics.hpp"

namespace dknn {
namespace {

/// Flushes across every EpochResultCache instance (every service's cache
/// shares this counter).
obs::Counter& flush_counter() {
  static obs::Counter& c = obs::registry().counter(
      "dknn_cache_flushes_total", "epoch-advance + capacity resets, all result caches");
  return c;
}

}  // namespace

std::vector<std::uint64_t> query_coord_bits(const PointD& query) {
  std::vector<std::uint64_t> bits;
  bits.reserve(query.dim());
  for (const double c : query.coords) bits.push_back(std::bit_cast<std::uint64_t>(c));
  return bits;
}

std::size_t EpochResultCache::CoordsHash::operator()(
    const std::vector<std::uint64_t>& bits) const {
  // splitmix64-style avalanche fold — cheap and well-mixed for IEEE bits.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + bits.size();
  for (std::uint64_t w : bits) {
    w += h;
    w = (w ^ (w >> 30)) * 0xbf58476d1ce4e5b9ULL;
    w = (w ^ (w >> 27)) * 0x94d049bb133111ebULL;
    h = w ^ (w >> 31);
  }
  return static_cast<std::size_t>(h);
}

std::optional<std::vector<Key>> EpochResultCache::lookup(
    const std::vector<std::uint64_t>& bits, std::uint64_t epoch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (epoch_ != epoch) {
    // Any snapshot advance invalidates every entry: the live set (or at
    // least the epoch the answer is stamped with) changed.
    if (!entries_.empty()) {
      ++stats_.flushes;
      flush_counter().add();
    }
    entries_.clear();
    epoch_ = epoch;
  }
  if (const auto it = entries_.find(bits); it != entries_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return std::nullopt;
}

void EpochResultCache::make_room(std::size_t incoming, std::uint64_t epoch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0 || epoch_ != epoch) return;
  if (entries_.size() + incoming > capacity_ && !entries_.empty()) {
    ++stats_.flushes;  // generation reset; see the header's eviction note
    flush_counter().add();
    entries_.clear();
  }
}

void EpochResultCache::insert(std::vector<std::uint64_t> bits, std::uint64_t epoch,
                              const std::vector<Key>& keys) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Only publish answers that are still current: a concurrent lookup
  // against a newer snapshot may have re-tagged the cache.  A full cache
  // drops the entry — make_room already took this round's one reset.
  if (capacity_ == 0 || epoch_ != epoch || entries_.size() >= capacity_) return;
  entries_.emplace(std::move(bits), keys);
}

void EpochResultCache::note_bypass(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.misses += n;
}

ResultCacheStats EpochResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace dknn
