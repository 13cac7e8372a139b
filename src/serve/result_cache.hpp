#pragma once
/// \file result_cache.hpp
/// \brief Epoch-keyed query-result cache behind the KnnService facade.
///
/// Caching exact-ℓ-NN answers is sound *because* every scoring path in
/// this repo is deterministic: the same frozen snapshot yields the same
/// bytes every time, so an entry tagged with the epoch it was computed at
/// is byte-identical to recomputing for as long as that epoch is current.
/// Any epoch advance (insert / delete / seal / compact — each publishes a
/// new epoch) invalidates the whole cache; a hit therefore never serves a
/// stale answer.
///
/// Entries are keyed by the query's coordinate *bit patterns*:
/// bit-identical queries share an entry; distinct-but-equal encodings
/// (-0.0 vs 0.0) simply don't, which is always sound.  The facade supports
/// per-call ℓ/metric overrides and appends both as two extra words to
/// every key, so an overridden call can never collide with a canonical
/// one.
///
/// Stats convention (asserted in tests): every answer
/// that had to run the kernels counts as a cache miss, *including* when
/// the cache is disabled (capacity 0).  lookup() already counts the miss
/// on the disabled path; an owner that skips lookup entirely for speed
/// must call note_bypass() instead, so ResultCacheStats always reconciles
/// with the owner's own counters (hits + misses = answers produced).
///
/// Eviction is a wholesale generation reset when full — the entries are
/// cheap to recompute and an LRU chain is not worth the locked-path cost.
/// Thread-safe: all methods may be called concurrently (one internal leaf
/// mutex, held only for map operations, never while anything scores).

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/key.hpp"
#include "data/point.hpp"

namespace dknn {

/// The query's coordinate bit patterns — the cache key.
[[nodiscard]] std::vector<std::uint64_t> query_coord_bits(const PointD& query);

struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< lookups that must run the kernels
  std::uint64_t flushes = 0;   ///< epoch-advance + capacity resets
};

class EpochResultCache {
 public:
  /// `capacity` = 0 disables the cache (every lookup is a miss, inserts
  /// are dropped).
  explicit EpochResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached keys for `bits` iff present and computed at
  /// `epoch`.  A lookup at a newer epoch flushes every stale entry first,
  /// so a hit is always exact for `epoch`.  Counts a hit or a miss.
  [[nodiscard]] std::optional<std::vector<Key>> lookup(const std::vector<std::uint64_t>& bits,
                                                       std::uint64_t epoch);

  /// Capacity pass before publishing a round of `incoming` answers: a
  /// round that would overflow takes ONE generation reset up front (the
  /// entries are cheap to recompute; repeated mid-round flushes would
  /// evict everything hot and keep almost nothing).  No-op when disabled
  /// or already re-tagged past `epoch`.
  void make_room(std::size_t incoming, std::uint64_t epoch);

  /// Publishes an answer computed at `epoch`.  Dropped without effect when
  /// the cache is full (call make_room once per round first), has moved to
  /// a newer epoch (a concurrent lookup re-tagged it), or is disabled.
  void insert(std::vector<std::uint64_t> bits, std::uint64_t epoch, const std::vector<Key>& keys);

  /// Counts `n` misses without probing the map — for owners that bypass
  /// lookup() wholesale (disabled cache, or a transitional liveness state
  /// where caching is unsound) yet still score `n` answers.  Keeps the
  /// miss counter meaning "answers that ran the kernels" on every path.
  void note_bypass(std::size_t n);

  [[nodiscard]] ResultCacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct CoordsHash {
    std::size_t operator()(const std::vector<std::uint64_t>& bits) const;
  };

  std::size_t capacity_ = 0;
  mutable std::mutex mutex_;
  std::unordered_map<std::vector<std::uint64_t>, std::vector<Key>, CoordsHash> entries_;
  std::uint64_t epoch_ = 0;  ///< epoch entries_ are valid for
  ResultCacheStats stats_;
};

}  // namespace dknn
