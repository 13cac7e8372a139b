#pragma once
/// \file metrics.hpp
/// \brief Process-wide metrics registry: named counters, gauges, and
///        log-linear latency histograms with per-thread sharded cells.
///
/// Every layer of the serving stack records into one `MetricsRegistry`
/// (the process-wide `obs::registry()`), replacing the per-layer ad-hoc
/// counter structs as the *aggregation* surface — `ServiceStats`,
/// `Compactor::Stats` etc. stay as per-instance views, but cross-layer
/// totals, latency distributions, and anything an operator scrapes live
/// here.  Design constraints, in order:
///
/// 1. **Hot-path increments must never fight over a cache line.**  Each
///    counter/gauge owns `kCounterShards` cache-line-aligned atomic
///    cells; a thread picks its cell by a thread-local slot id, so an
///    increment is one relaxed `fetch_add` on a line that (up to slot
///    collisions) only that thread touches.  Histograms shard the whole
///    bucket array the same way.  Reads (`snapshot()`) merge the shards;
///    they are racy-by-design running sums, exact once writers quiesce.
/// 2. **Disabled must cost one branch.**  Every instrument holds a
///    pointer to its registry's `enabled` flag and returns after a single
///    relaxed load when it is false — the `set_enabled(false)`
///    configuration is the "no observability" baseline the
///    `obs_overhead` bench stanza compares against.
/// 3. **Histogram error is bounded, not sampled.**  Buckets are
///    HDR-style log-linear: values below 64 map exactly; above that each
///    power-of-two octave splits into 64 linear sub-buckets, so a
///    bucket's midpoint is within 1/128 (< 1%) of any value it absorbs.
///    Bucket math is `constexpr` free functions (`bucket_index`,
///    `bucket_lo`, `bucket_width`) — golden-tested in tests/test_obs.cpp.
///
/// Instruments are registered by name on first use and live for the
/// registry's lifetime; references returned by `counter()` / `gauge()` /
/// `histogram()` are stable, so callers cache them (typically in a
/// function-local static) and skip the name lookup on the hot path.
///
/// Naming convention: `dknn_<layer>_<thing>_total` for counters,
/// `dknn_<layer>_<thing>` for gauges, `dknn_<layer>_<thing>_ns` for
/// latency histograms (all durations in nanoseconds).

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dknn::obs {

// --- log-linear bucket math --------------------------------------------------

inline constexpr std::uint32_t kSubBits = 6;
inline constexpr std::uint64_t kSubBuckets = 1u << kSubBits;  // 64
/// Values with bit-width above this clamp into the last bucket: 2^40 ns
/// is ~18 minutes, far past any latency this stack can produce.
inline constexpr std::uint32_t kMaxOctave = 40;
inline constexpr std::size_t kHistogramBuckets =
    kSubBuckets + (kMaxOctave - kSubBits) * kSubBuckets;  // 64 + 34*64 = 2240

/// Bucket a value lands in.  v < 64 maps exactly to bucket v; otherwise
/// the top 6 bits below the leading bit pick a linear sub-bucket inside
/// the value's octave.
[[nodiscard]] constexpr std::size_t bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const std::uint32_t octave = static_cast<std::uint32_t>(std::bit_width(v)) - 1;
  if (octave >= kMaxOctave) return kHistogramBuckets - 1;
  const std::uint64_t sub = (v >> (octave - kSubBits)) & (kSubBuckets - 1);
  return kSubBuckets + (octave - kSubBits) * kSubBuckets + static_cast<std::size_t>(sub);
}

/// Smallest value bucket `i` absorbs.
[[nodiscard]] constexpr std::uint64_t bucket_lo(std::size_t i) {
  if (i < kSubBuckets) return i;
  const std::size_t rel = i - kSubBuckets;
  const std::uint32_t octave = kSubBits + static_cast<std::uint32_t>(rel / kSubBuckets);
  const std::uint64_t sub = rel % kSubBuckets;
  return (kSubBuckets + sub) << (octave - kSubBits);
}

/// Width of bucket `i`: [bucket_lo(i), bucket_lo(i) + bucket_width(i)).
[[nodiscard]] constexpr std::uint64_t bucket_width(std::size_t i) {
  if (i < kSubBuckets) return 1;
  const std::uint32_t octave = kSubBits + static_cast<std::uint32_t>((i - kSubBuckets) / kSubBuckets);
  return std::uint64_t{1} << (octave - kSubBits);
}

/// The value a bucket reports for everything it absorbed (its midpoint);
/// |representative − v| / v ≤ 1/128 for any v the bucket covers.
[[nodiscard]] constexpr std::uint64_t bucket_representative(std::size_t i) {
  return bucket_lo(i) + bucket_width(i) / 2;
}

// --- sharding ----------------------------------------------------------------

inline constexpr std::size_t kCounterShards = 16;   // power of two
inline constexpr std::size_t kHistogramShards = 4;  // power of two

/// This thread's stable shard slot (assigned once, round-robin).
[[nodiscard]] std::size_t thread_shard_slot();

// --- instruments -------------------------------------------------------------

/// Monotone event counter.  add() is wait-free: one relaxed fetch_add on
/// a (mostly) thread-private cache line.
class Counter {
 public:
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void add(std::uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[thread_shard_slot() & (kCounterShards - 1)].v.fetch_add(n,
                                                                   std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kCounterShards> cells_{};
  const std::atomic<bool>* enabled_;
};

/// Signed level tracked by deltas: concurrent owners add()/sub() what
/// they contribute and the merged value is the current level (queue
/// depth, live points, compaction debt).  There is deliberately no
/// set() — absolute stores do not merge across shards or instances.
class Gauge {
 public:
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void add(std::int64_t n) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[thread_shard_slot() & (kCounterShards - 1)].v.fetch_add(n,
                                                                   std::memory_order_relaxed);
  }
  void sub(std::int64_t n) { add(-n); }

  [[nodiscard]] std::int64_t value() const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Cell, kCounterShards> cells_{};
  const std::atomic<bool>* enabled_;
};

/// Log-linear histogram of non-negative integer samples (by convention,
/// nanoseconds).  record() touches one bucket plus the count/sum pair of
/// this thread's shard.
class Histogram {
 public:
  explicit Histogram(const std::atomic<bool>* enabled);

  void record(std::uint64_t v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    Shard& s = shards_[thread_shard_slot() & (kHistogramShards - 1)];
    s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint64_t sum() const;
  /// Merged (bucket index, count) pairs for every non-empty bucket,
  /// ascending by index.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::uint64_t>> nonzero_buckets() const;
  void reset();

 private:
  struct Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;  // kHistogramBuckets
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kHistogramShards> shards_;
  const std::atomic<bool>* enabled_;
};

// --- snapshots ---------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string help;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::string help;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Non-empty buckets only, ascending by bucket index.
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;

  /// Ceil-nearest-rank quantile over the bucketed samples, reported as
  /// the owning bucket's representative value (≤ 1/128 relative error).
  /// q in [0, 1]; 0 samples → 0.
  [[nodiscard]] std::uint64_t quantile(double q) const;
};

/// One merged, point-in-time view of every registered instrument, sorted
/// by name within each kind.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] const CounterSnapshot* find_counter(std::string_view name) const;
  [[nodiscard]] const GaugeSnapshot* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(std::string_view name) const;

  /// Prometheus text exposition (HELP/TYPE lines, cumulative `_bucket`
  /// ladder over non-empty buckets plus `+Inf`, `_sum`, `_count`).
  [[nodiscard]] std::string prometheus_text() const;
  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, p50, p95, p99, buckets: [[lo, n]...]}}}.
  [[nodiscard]] std::string json_text() const;
};

// --- registry ----------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name.  The returned reference is stable for the
  /// registry's lifetime — cache it, don't re-look-up per event.
  /// Registering the same name as two different kinds panics.
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::string_view help = "");

  /// Runtime kill switch: false short-circuits every instrument to a
  /// single relaxed load + branch.  Instruments keep their accumulated
  /// values across toggles.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::string prometheus_text() const { return snapshot().prometheus_text(); }
  [[nodiscard]] std::string json_text() const { return snapshot().json_text(); }

  /// Zero every instrument (the instruments stay registered).  Test and
  /// bench hook — not meant for production use.
  void reset();

 private:
  template <typename T>
  struct Named {
    std::string help;
    std::unique_ptr<T> instrument;
  };

  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;  ///< guards the maps, never the hot path
  std::map<std::string, Named<Counter>, std::less<>> counters_;
  std::map<std::string, Named<Gauge>, std::less<>> gauges_;
  std::map<std::string, Named<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry every layer records into.
[[nodiscard]] MetricsRegistry& registry();

}  // namespace dknn::obs
