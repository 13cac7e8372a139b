#pragma once
/// \file parity_support.hpp
/// \brief The shared ground-truth oracle for every scoring parity suite.
///
/// test_parity.cpp (cross-path), test_simd_parity.cpp (cross-ISA) and
/// test_kernels.cpp (kernel + golden fixtures) all anchor on the same
/// reference: a per-query AoS scan through the metric.hpp functors plus a
/// bounded top-ℓ.  One definition here keeps the oracle from drifting
/// between suites if Key encoding or metric semantics ever change.  The
/// classify/regress suites also build their id → payload tables here.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/driver.hpp"
#include "data/kernels.hpp"
#include "seq/select.hpp"

namespace dknn::testing_support {

/// Ground truth no kernel TU touches: score everything via the functors,
/// cap to ℓ.
inline std::vector<Key> reference_top_ell(const VectorShard& shard, const PointD& query,
                                          MetricKind kind, std::size_t ell) {
  std::vector<Key> scored;
  scored.reserve(shard.points.size());
  for (std::size_t i = 0; i < shard.points.size(); ++i) {
    scored.push_back(
        Key{encode_distance(metric_distance(kind, shard.points[i], query)), shard.ids[i]});
  }
  return top_ell_smallest(std::span<const Key>(scored), ell);
}

/// One store per shard, its points sealed at construction — the machines a
/// static KnnService scores.
inline std::vector<SnapshotPtr> sealed_snapshots(const std::vector<VectorShard>& shards,
                                                 std::size_t dim, const ServeConfig& serve) {
  std::vector<SnapshotPtr> snapshots;
  for (const VectorShard& shard : shards) {
    snapshots.push_back(SegmentStore(dim, shard.points, shard.ids, serve).snapshot());
  }
  return snapshots;
}

/// Byte-level Key comparison; fatal on the first divergence (rank bits
/// count, not just ids — a single rank bit can flip a selection far
/// downstream).
inline void expect_same_keys(const std::vector<Key>& expected, const std::vector<Key>& actual,
                             const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].rank, actual[i].rank) << label << " rank at " << i;
    ASSERT_EQ(expected[i].id, actual[i].id) << label << " id at " << i;
  }
}

/// Per-machine id → payload tables for classify/regress_scored_batch:
/// payloads[m][i] belongs to shards[m].ids[i].
template <typename T>
std::vector<std::unordered_map<PointId, T>> payloads_by_id(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<T>>& payloads) {
  EXPECT_EQ(shards.size(), payloads.size());
  std::vector<std::unordered_map<PointId, T>> tables(shards.size());
  for (std::size_t m = 0; m < shards.size(); ++m) {
    EXPECT_EQ(shards[m].ids.size(), payloads[m].size());
    for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
      tables[m].emplace(shards[m].ids[i], payloads[m][i]);
    }
  }
  return tables;
}

/// The same tables behind shared pointers (regress_scored_batch's form).
template <typename T>
std::vector<std::shared_ptr<const std::unordered_map<PointId, T>>> shared_tables(
    std::vector<std::unordered_map<PointId, T>> tables) {
  std::vector<std::shared_ptr<const std::unordered_map<PointId, T>>> out;
  for (auto& table : tables) {
    out.push_back(std::make_shared<const std::unordered_map<PointId, T>>(std::move(table)));
  }
  return out;
}

}  // namespace dknn::testing_support
