#pragma once
/// \file dknn.hpp
/// \brief Umbrella header: the whole public API in one include.
///
///   #include "dknn.hpp"
///
/// Layering, bottom to top (see src/README.md for the full map and the
/// facade migration table):
///
///   support/ serial/ rng/      utilities, codecs, seeded randomness
///   net/ sim/                  the k-machine model: links, BSP engine,
///                              cost accounting, work-stealing pool
///   data/ seq/                 points, metrics, SoA stores, fused/SIMD
///                              kernels, the kd-tree, centralized validators
///   election/ core/ (alg.)     the paper's protocols: selection, ℓ-NN,
///                              elections, sessions
///   fault/                     machine health, deadlines, replica mirror,
///                              survivor elections for recovery
///   serve/                     live single-store serving: SegmentStore,
///                              Compactor, result cache
///   core/knn_service.hpp       ★ the front door: KnnService unifies the
///                              static, batched and live query paths —
///                              start here; everything below is its
///                              decomposed stages
///
/// New capabilities land in the facade once instead of once per path; the
/// free functions stay public for callers who need a single stage.

// substrate: utilities, randomness, serialization
#include "rng/rng.hpp"            // IWYU pragma: export
#include "rng/sampling.hpp"       // IWYU pragma: export
#include "serial/codec.hpp"       // IWYU pragma: export
#include "support/cli.hpp"        // IWYU pragma: export
#include "support/stats.hpp"      // IWYU pragma: export
#include "support/table.hpp"      // IWYU pragma: export

// substrate: the k-machine model
#include "net/fault.hpp"          // IWYU pragma: export
#include "net/network.hpp"        // IWYU pragma: export
#include "sim/collectives.hpp"    // IWYU pragma: export
#include "sim/cost_model.hpp"     // IWYU pragma: export
#include "sim/engine.hpp"         // IWYU pragma: export

// data and sequential algorithms
#include "data/flat_store.hpp"    // IWYU pragma: export
#include "data/generators.hpp"    // IWYU pragma: export
#include "data/kernels.hpp"       // IWYU pragma: export
#include "data/key.hpp"           // IWYU pragma: export
#include "data/metric.hpp"        // IWYU pragma: export
#include "data/partition.hpp"     // IWYU pragma: export
#include "data/simd/dispatch.hpp" // IWYU pragma: export
#include "data/validate.hpp"      // IWYU pragma: export
#include "seq/brute.hpp"          // IWYU pragma: export
#include "seq/kdtree.hpp"         // IWYU pragma: export
#include "seq/scoring_policy.hpp" // IWYU pragma: export
#include "seq/select.hpp"         // IWYU pragma: export

// leader election
#include "election/min_id.hpp"    // IWYU pragma: export
#include "election/sublinear.hpp" // IWYU pragma: export

// fault tolerance: health registry, replica mirror, recovery elections
#include "fault/health.hpp"       // IWYU pragma: export
#include "fault/recovery.hpp"     // IWYU pragma: export

// the paper's algorithms and their decomposed driver stages
#include "core/binsearch.hpp"     // IWYU pragma: export
#include "core/dist_knn.hpp"      // IWYU pragma: export
#include "core/dist_select.hpp"   // IWYU pragma: export
#include "core/driver.hpp"        // IWYU pragma: export
#include "core/mlapi.hpp"         // IWYU pragma: export
#include "core/saukas_song.hpp"   // IWYU pragma: export
#include "core/session.hpp"       // IWYU pragma: export
#include "core/simple_knn.hpp"    // IWYU pragma: export

// live serving (epoch-snapshotted segment store + compaction + result cache)
#include "serve/compactor.hpp"      // IWYU pragma: export
#include "serve/result_cache.hpp"   // IWYU pragma: export
#include "serve/segment_store.hpp"  // IWYU pragma: export

// the front door
#include "core/knn_service.hpp"   // IWYU pragma: export
