#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "data/metric.hpp"

namespace perfbench {

double Samples::quantile_ms(double p) {
  if (ns_.empty()) return 0.0;
  if (!sorted_) std::sort(ns_.begin(), ns_.end());
  sorted_ = true;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(ns_.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, ns_.size()) - 1;
  return static_cast<double>(ns_[index]) * 1e-6;
}

void RunResult::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 16) errors.push_back(why);
}

void EndToEnd::emit(RunResult& result) const {
  result.metric("setup_s", setup_s, "s");
  result.metric("ops_per_s", ops_per_s, "1/s");
  result.metric("query_p90_ms", query_p90_ms, "ms");
  result.metric("rounds_per_query", rounds_per_query, "count");
  result.metric("messages_per_query", messages_per_query, "count");
  result.metric("recall", recall, "ratio");
  result.metric("success_rate",
                result.attempted == 0 ? 0.0
                                      : 1.0 - static_cast<double>(result.failed) /
                                                  static_cast<double>(result.attempted),
                "ratio");
  result.metric("peak_rss_mb", peak_rss_mb, "MB");
}

void Layers::emit(RunResult& result) {
  const auto per = [](double total, std::uint64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  const double stages = snapshot_us + score_us + select_us;
  result.metric("data.score_us_per_query", per(score_us, scored), "us");
  result.metric("data.rows_per_query", per(rows, scored), "count");
  result.metric("data.bytes_per_query", per(rows * static_cast<double>(dim) * 8.0, scored),
                "bytes");
  result.metric("seq.tree_share", per(static_cast<double>(tree_queries), shard_scorings),
                "ratio");
  result.metric("seq.scan_fraction", per(static_cast<double>(tree_points), tree_rows), "ratio");
  result.metric("core.select_us_per_query", per(select_us, scored), "us");
  result.metric("core.compute_us_per_query", per(compute_us, scored), "us");
  result.metric("core.attempts_per_query", per(attempts, scored), "count");
  result.metric("core.candidates_per_query", per(candidates, scored), "count");
  result.metric("sim.overhead_us_per_query", per(select_us - compute_us, scored), "us");
  result.metric("net.bits_per_query", per(bits, scored), "bits");
  result.metric("serve.snapshot_us_per_query", per(snapshot_us, scored), "us");
  result.metric("serve.insert_us", replica_insert.mean_us(), "us");
  result.metric("serve.erase_us", replica_erase.mean_us(), "us");
  result.metric("serve.compact_ms", compact.mean_us() * 1e-3, "ms");
  result.metric("serve.seals", static_cast<double>(seals), "count");
  result.metric("serve.compaction_installs", static_cast<double>(installs), "count");
  result.metric("serve.compaction_aborts", static_cast<double>(aborts), "count");
  result.metric("serve.publishes_per_write", per(static_cast<double>(publishes), writes),
                "count");
  result.metric("serve.cache_hit_rate", per(static_cast<double>(cache_hits), queries), "ratio");
  result.metric("serve.cache_flushes_per_write", per(static_cast<double>(flushes), writes),
                "count");
  result.metric("ann.build_s", build_s, "s");
  result.metric("ann.build_iters", build_iters, "count");
  result.metric("ann.search_us_per_query", approx ? per(score_us, scored) : 0.0, "us");
  result.metric("ann.hops_per_query", per(hops, ann_queries), "count");
  result.metric("ann.frontier_points_per_query", per(frontier, ann_queries), "count");
  result.metric("ann.rerank_per_query", per(rerank, ann_queries), "count");
  result.metric("knn_service.facade_us_per_query", per(facade_us, scored), "us");
  result.metric("knn_service.unaccounted_us_per_query", per(facade_us - stages, scored), "us");
  result.metric("knn_service.unaccounted_share",
                facade_us > 0.0 ? (facade_us - stages) / facade_us : 0.0, "ratio");
  const std::size_t replica_writes = replica_insert.size() + replica_erase.size();
  result.metric("knn_service.write_overhead_us",
                replica_writes == 0
                    ? 0.0
                    : facade_write.mean_us() -
                          (replica_insert.sum_us() + replica_erase.sum_us()) /
                              static_cast<double>(replica_writes),
                "us");
  result.metric("knn_service.insert_p50_ms", facade_insert.quantile_ms(0.50), "ms");
  result.metric("knn_service.erase_p50_ms", facade_erase.quantile_ms(0.50), "ms");
  result.metric("knn_service.write_p99_ms",
                facade_write.resolves(0.99) ? facade_write.quantile_ms(0.99) : 0.0, "ms");
  result.metric("knn_service.query_p50_ms", facade_query.quantile_ms(0.50), "ms");
  result.metric("knn_service.query_p99_ms",
                facade_query.resolves(0.99) ? facade_query.quantile_ms(0.99) : 0.0, "ms");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// Position just after `"name": ` inside the given section of the JSON text.
std::size_t find_value(const std::string& json, const std::string& section,
                       const std::string& name) {
  const std::size_t start = json.find("\"" + section + "\"");
  if (start == std::string::npos) return std::string::npos;
  const std::size_t at = json.find("\"" + name + "\": ", start);
  return at == std::string::npos ? at : at + name.size() + 4;
}

}  // namespace

std::uint64_t registry_counter(const std::string& json, const std::string& name) {
  const std::size_t at = find_value(json, "counters", name);
  return at == std::string::npos ? 0 : std::stoull(json.substr(at, 24));
}

std::uint64_t registry_histogram(const std::string& json, const std::string& name,
                                 const std::string& field) {
  const std::size_t at = find_value(json, "histograms", name);
  if (at == std::string::npos) return 0;
  const std::size_t value = json.find("\"" + field + "\": ", at);
  return value == std::string::npos ? 0
                                    : std::stoull(json.substr(value + field.size() + 4, 24));
}

bool sampled(std::uint64_t seed, std::uint64_t index, std::uint64_t period) {
  // splitmix64 finalizer over (seed, index).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z % period == 0;
}

std::vector<dknn::Key> oracle_top_ell(std::span<const dknn::PointD> points,
                                      std::span<const dknn::PointId> ids,
                                      const dknn::PointD& query, std::size_t ell) {
  const dknn::SquaredEuclidean metric;
  std::vector<dknn::Key> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    keys[i] = dknn::Key{dknn::encode_distance(metric(points[i], query)), ids[i]};
  }
  const std::size_t take = std::min(ell, keys.size());
  std::partial_sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(take), keys.end());
  keys.resize(take);
  return keys;
}

double overlap(const std::vector<dknn::Key>& a, const std::vector<dknn::Key>& b) {
  if (b.empty()) return 1.0;
  std::size_t hits = 0;
  for (const dknn::Key& key : b) hits += std::binary_search(a.begin(), a.end(), key) ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(b.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
