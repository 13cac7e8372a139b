#pragma once
// Shared plumbing of the benchmark harness: run options, latency samples,
// the result record every workload fills, registry reads and the
// brute-force oracle the answer checks compare against.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/key.hpp"
#include "data/point.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrinks its dataset and fixed prefix so
  /// a fingerprint comparison runs in seconds.
  bool small = false;
};

[[nodiscard]] inline std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return static_cast<double>(ns_since(start)) * 1e-9;
}

/// Latency samples (nanoseconds) with ceil-nearest-rank quantiles.
class Samples {
 public:
  void add(std::uint64_t ns) {
    ns_.push_back(ns);
    sum_ += ns;
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const { return ns_.size(); }
  [[nodiscard]] double sum_us() const { return static_cast<double>(sum_) * 1e-3; }
  [[nodiscard]] double mean_us() const { return ns_.empty() ? 0.0 : sum_us() / ns_.size(); }
  /// The p-quantile in milliseconds (0 when empty).
  [[nodiscard]] double quantile_ms(double p);
  /// True when at least ten samples lie beyond the p-quantile.
  [[nodiscard]] bool resolves(double p) const {
    return static_cast<double>(ns_.size()) * (1.0 - p) >= 10.0;
  }

 private:
  std::vector<std::uint64_t> ns_;
  std::uint64_t sum_ = 0;
  bool sorted_ = true;
};

/// Runs `fn` and returns its wall time in nanoseconds.
template <typename Fn>
[[nodiscard]] std::uint64_t time_ns(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return ns_since(start);
}

/// Everything one run reports: the result line (attempted / failed /
/// metrics; the run is correct iff nothing failed) plus the deterministic
/// fingerprint.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> fingerprint;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fingerprint_value(const std::string& name, double value) {
    fingerprint.emplace_back(name, value);
  }
  /// Counts one failed operation (a throw or a wrong answer); the run is
  /// then incorrect and exits non-zero.
  void fail(const std::string& why);
};

/// The end-to-end metrics every workload reports (see perfbench/README.md
/// for their per-workload definitions).
struct EndToEnd {
  double setup_s = 0.0;       ///< median over the run's setups
  double ops_per_s = 0.0;
  double query_p90_ms = 0.0;
  double rounds_per_query = 0.0;
  double messages_per_query = 0.0;
  double recall = 0.0;
  double peak_rss_mb = 0.0;   ///< read before any oracle is built

  /// Appends every end-to-end metric (plus success_rate from `result`'s
  /// failure count) to `result`.
  void emit(RunResult& result) const;
};

/// The traced run's per-layer accumulators.  Every workload prints every
/// per-layer metric; a layer the workload bypasses reads 0.
struct Layers {
  std::size_t dim = 0;

  // Stage ladder, summed over the queries replayed through the stages (the
  // facade's cache hits run no stage and are left out).
  std::uint64_t scored = 0;
  double facade_us = 0.0;    ///< facade call time on the same queries
  double snapshot_us = 0.0;  ///< SegmentStore::snapshot() on every replica
  double score_us = 0.0;     ///< score_*_batch
  double select_us = 0.0;    ///< run_knn_batch / classify_scored_batch
  double compute_us = 0.0;   ///< RunReport::total_comp_ns
  double attempts = 0.0;
  double candidates = 0.0;
  double bits = 0.0;
  double rows = 0.0;         ///< brute rows + tree points_scored
  bool approx = false;       ///< the scoring call is the ann beam search
  std::uint64_t shard_scorings = 0;  ///< scored queries × machines
  std::uint64_t tree_queries = 0;
  std::uint64_t tree_points = 0;
  std::uint64_t tree_rows = 0;       ///< rows resident in the tree-scored segments

  // serve/: replica SegmentStore writes, facade writes and compactions.
  Samples replica_insert;
  Samples replica_erase;
  Samples facade_insert;
  Samples facade_erase;
  Samples facade_write;
  Samples facade_query;
  Samples compact;
  std::uint64_t writes = 0;
  std::uint64_t seals = 0;
  std::uint64_t installs = 0;
  std::uint64_t aborts = 0;
  std::uint64_t publishes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;

  // ann/: graph build of the measured service, search counters of the
  // facade pass.
  double build_s = 0.0;
  double build_iters = 0.0;
  std::uint64_t ann_queries = 0;
  double hops = 0.0;
  double frontier = 0.0;
  double rerank = 0.0;

  /// Appends every per-layer metric to `result`.
  void emit(RunResult& result);
};

/// Process high-water resident set size in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// One counter out of KnnService::metrics_json() (0 when absent).
[[nodiscard]] std::uint64_t registry_counter(const std::string& json, const std::string& name);
/// One histogram's `count` or `sum` out of KnnService::metrics_json().
[[nodiscard]] std::uint64_t registry_histogram(const std::string& json, const std::string& name,
                                               const std::string& field);

/// Deterministic per-item sampling gate: true for about one index in
/// `period`, a pure function of (seed, index).
[[nodiscard]] bool sampled(std::uint64_t seed, std::uint64_t index, std::uint64_t period);

/// Exact ℓ-NN by brute force with the scalar SquaredEuclidean functor —
/// independent of the SIMD kernels, tree and graph under test.  Keys
/// ascending, min(ℓ, n) of them.
[[nodiscard]] std::vector<dknn::Key> oracle_top_ell(std::span<const dknn::PointD> points,
                                                    std::span<const dknn::PointId> ids,
                                                    const dknn::PointD& query, std::size_t ell);

/// |a ∩ b| / |b| over two ascending key lists.
[[nodiscard]] double overlap(const std::vector<dknn::Key>& a, const std::vector<dknn::Key>& b);

[[nodiscard]] double median(std::vector<double> values);

RunResult run_offline(const Options& options);
RunResult run_online(const Options& options);
RunResult run_approx(const Options& options);

}  // namespace perfbench
