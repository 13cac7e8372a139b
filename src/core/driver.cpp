#include "core/driver.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/batch_runner.hpp"
#include "core/binsearch.hpp"
#include "core/saukas_song.hpp"
#include "core/simple_knn.hpp"
#include "seq/select.hpp"
#include "support/panic.hpp"

namespace dknn {

std::vector<ScalarShard> make_scalar_shards(std::vector<Value> values, std::uint32_t k,
                                            PartitionScheme scheme, Rng& rng) {
  std::vector<PointId> ids = assign_random_ids(values.size(), rng);
  std::vector<std::pair<Value, PointId>> tagged;
  tagged.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) tagged.emplace_back(values[i], ids[i]);
  auto parts = partition(std::move(tagged), k, scheme, rng);
  std::vector<ScalarShard> shards(k);
  for (std::uint32_t m = 0; m < k; ++m) {
    shards[m].values.reserve(parts[m].size());
    shards[m].ids.reserve(parts[m].size());
    for (const auto& [v, id] : parts[m]) {
      shards[m].values.push_back(v);
      shards[m].ids.push_back(id);
    }
  }
  return shards;
}

std::vector<VectorShard> make_vector_shards(std::vector<PointD> points, std::uint32_t k,
                                            PartitionScheme scheme, Rng& rng,
                                            ShardPlacement& placement) {
  std::vector<PointId> ids = assign_random_ids(points.size(), rng);
  std::vector<std::pair<std::size_t, PointId>> tagged;  // index + id (points not ordered)
  tagged.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) tagged.emplace_back(i, ids[i]);
  auto parts = partition(std::move(tagged), k, scheme, rng);
  placement.assign(points.size(), {0, 0});
  std::vector<VectorShard> shards(k);
  for (std::uint32_t m = 0; m < k; ++m) {
    shards[m].points.reserve(parts[m].size());
    shards[m].ids.reserve(parts[m].size());
    for (const auto& [index, id] : parts[m]) {
      placement[index] = {m, static_cast<std::uint32_t>(shards[m].points.size())};
      shards[m].points.push_back(std::move(points[index]));
      shards[m].ids.push_back(id);
    }
  }
  return shards;
}

std::vector<VectorShard> make_vector_shards(std::vector<PointD> points, std::uint32_t k,
                                            PartitionScheme scheme, Rng& rng) {
  ShardPlacement placement;
  return make_vector_shards(std::move(points), k, scheme, rng, placement);
}

std::vector<Key> score_scalar_shard(const ScalarShard& shard, Value query) {
  DKNN_REQUIRE(shard.values.size() == shard.ids.size(), "shard values/ids must align");
  std::vector<Key> keys;
  keys.reserve(shard.values.size());
  for (std::size_t i = 0; i < shard.values.size(); ++i) {
    keys.push_back(Key{scalar_distance(shard.values[i], query), shard.ids[i]});
  }
  return keys;
}

std::vector<std::vector<Key>> score_scalar_shards(const std::vector<ScalarShard>& shards,
                                                  Value query) {
  std::vector<std::vector<Key>> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(score_scalar_shard(shard, query));
  return out;
}

std::vector<Key> score_hamming_shard(const ScalarShard& shard, Value query) {
  DKNN_REQUIRE(shard.values.size() == shard.ids.size(), "shard values/ids must align");
  std::vector<Key> keys;
  keys.reserve(shard.values.size());
  for (std::size_t i = 0; i < shard.values.size(); ++i) {
    keys.push_back(Key{hamming_distance(shard.values[i], query), shard.ids[i]});
  }
  return keys;
}

std::vector<std::vector<Key>> score_hamming_shards(const std::vector<ScalarShard>& shards,
                                                   Value query) {
  std::vector<std::vector<Key>> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(score_hamming_shard(shard, query));
  return out;
}

std::vector<std::vector<Key>> quantize_scored_shards(std::vector<std::vector<Key>> shards,
                                                     unsigned drop_bits) {
  for (auto& shard : shards) {
    for (auto& key : shard) key.rank = quantize_rank(key.rank, drop_bits);
  }
  return shards;
}

std::vector<ShardIndex> make_shard_indexes(const std::vector<VectorShard>& shards,
                                           ScoringPolicy policy, std::size_t leaf_size,
                                           const ann::AnnConfig& ann) {
  std::vector<ShardIndex> indexes;
  indexes.reserve(shards.size());
  for (const VectorShard& shard : shards) {
    indexes.push_back(make_shard_index(shard.points, shard.ids, policy, leaf_size, ann));
  }
  return indexes;
}

TreeStats tree_stats(const std::vector<ShardIndex>& indexes) {
  TreeStats out;
  for (const ShardIndex& index : indexes) {
    if (index.has_tree()) out += index.tree->stats();
  }
  return out;
}

namespace {

/// Default BatchScoringConfig::shard_split_rows: big enough that the merge
/// overhead is noise, small enough that a few-hundred-thousand-point shard
/// splits into several rebalanceable pieces.
constexpr std::size_t kDefaultShardSplitRows = 1u << 16;

/// Shared tiling engine of the batched scoring overloads: runs
/// `score(m, query_subspan, keys, scratch)` over every (machine,
/// query-block) tile — serial shard-outer below the parallel threshold,
/// otherwise tiled over the work-stealing pool.  Each task owns disjoint
/// pre-sized slots, so the assembled result is independent of the steal
/// schedule.
///
/// Point-range subtiles (the "one huge shard serializes its column scans"
/// fix): on the pool path, a machine whose `splittable_rows(m)` exceeds
/// the split threshold is scored as several independent row ranges via
/// `score_range(m, lo, hi, query_subspan, keys, scratch)`; each range's
/// local top-ℓ lists land in their own pre-sized slots and merge into the
/// machine's final [query][machine] slot after the barrier.  Merging is
/// byte-exact: keys are globally distinct, and any global top-ℓ key inside
/// a range is by definition inside that range's top-ℓ, so the ℓ smallest
/// of the concatenated range winners equal the unsplit scan's answer
/// (fuzzed against the unsplit grid in tests/test_parity.cpp).
/// `splittable_rows(m) == 0` marks a machine opaque (tree-indexed shards,
/// multi-segment or tombstoned snapshots) — it is always scored whole.
template <typename ScoreTile, typename SplittableRows, typename ScoreRange>
std::vector<std::vector<std::vector<Key>>> score_tiled_grid(
    std::size_t machines, std::span<const PointD> queries, std::uint64_t ell,
    const BatchScoringConfig& config, const ScoreTile& score,
    const SplittableRows& splittable_rows, const ScoreRange& score_range) {
  std::vector<std::vector<std::vector<Key>>> out(queries.size());
  for (auto& per_shard : out) per_shard.resize(machines);
  if (queries.empty() || machines == 0) return out;

  ThreadPool* pool = config.pool;
  const std::size_t threads =
      pool != nullptr ? pool->thread_count()
      : config.threads != 0
          ? config.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (pool == nullptr && threads <= 1) {
    // Serial: shard-outer, whole query block per shard (maximal cache
    // reuse); splitting would only add merge work on one thread.
    KernelScratch scratch;
    std::vector<std::vector<Key>> keys;
    for (std::size_t m = 0; m < machines; ++m) {
      score(m, queries, keys, scratch);
      for (std::size_t q = 0; q < queries.size(); ++q) out[q][m] = std::move(keys[q]);
    }
    return out;
  }

  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(threads, config.seed);
    pool = owned.get();
  }

  // ~4 tasks per worker leaves the pool room to rebalance shards of
  // uneven size.
  const std::size_t block =
      config.query_block != 0
          ? config.query_block
          : std::max<std::size_t>(1, (queries.size() + threads * 4 - 1) / (threads * 4));
  const std::size_t split_rows =
      config.shard_split_rows != 0 ? config.shard_split_rows : kDefaultShardSplitRows;

  // partials[m][piece][q] = piece's local top-ℓ for query q (split machines
  // only; whole machines write out[q][m] directly).  All slots are sized
  // before any task runs.
  std::vector<std::vector<std::vector<std::vector<Key>>>> partials(machines);
  std::vector<std::size_t> pieces_of(machines, 1);
  for (std::size_t m = 0; m < machines; ++m) {
    const std::size_t rows = splittable_rows(m);
    if (rows > split_rows) {
      pieces_of[m] = (rows + split_rows - 1) / split_rows;
      partials[m].assign(pieces_of[m], std::vector<std::vector<Key>>(queries.size()));
    }
  }

  // A TaskGroup, not wait_idle(): several scoring batches (and background
  // compactions) may share this pool concurrently — the lock-free
  // KnnService read path does exactly that — and global quiescence would
  // make each batch wait on every other submitter's jobs (or starve under
  // sustained load).  The group waits for exactly this call's tiles.
  ThreadPool::TaskGroup tiles(*pool);
  for (std::size_t m = 0; m < machines; ++m) {
    const std::size_t pieces = pieces_of[m];
    for (std::size_t q0 = 0; q0 < queries.size(); q0 += block) {
      const std::size_t len = std::min(block, queries.size() - q0);
      if (pieces == 1) {
        tiles.submit([&out, &score, queries, m, q0, len] {
          KernelScratch scratch;
          std::vector<std::vector<Key>> keys;
          score(m, queries.subspan(q0, len), keys, scratch);
          for (std::size_t i = 0; i < len; ++i) out[q0 + i][m] = std::move(keys[i]);
        });
        continue;
      }
      const std::size_t rows = splittable_rows(m);
      for (std::size_t piece = 0; piece < pieces; ++piece) {
        // Balanced ranges: piece p covers [p·rows/pieces, (p+1)·rows/pieces).
        const std::size_t lo = piece * rows / pieces;
        const std::size_t hi = (piece + 1) * rows / pieces;
        tiles.submit([&partials, &score_range, queries, m, piece, lo, hi, q0, len] {
          KernelScratch scratch;
          std::vector<std::vector<Key>> keys;
          score_range(m, lo, hi, queries.subspan(q0, len), keys, scratch);
          for (std::size_t i = 0; i < len; ++i) {
            partials[m][piece][q0 + i] = std::move(keys[i]);
          }
        });
      }
    }
  }
  tiles.wait();

  // Merge pass for split machines: ℓ smallest of the concatenated range
  // winners, per query.
  std::vector<Key> pooled;
  for (std::size_t m = 0; m < machines; ++m) {
    if (pieces_of[m] == 1) continue;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      pooled.clear();
      for (std::size_t piece = 0; piece < pieces_of[m]; ++piece) {
        const auto& part = partials[m][piece][q];
        pooled.insert(pooled.end(), part.begin(), part.end());
      }
      out[q][m] =
          top_ell_smallest(std::span<const Key>(pooled), static_cast<std::size_t>(ell));
    }
  }
  return out;
}

/// Row-range subtile of a split machine: the same bounded-heap kernels the
/// kd-hybrid uses, over rows [lo, hi) of the SoA store, each query through
/// a RangeTopEll view of its heap in one running selection.
void score_rows(const FlatStore& store, std::size_t lo, std::size_t hi,
                std::span<const PointD> block, std::uint64_t ell, MetricKind kind,
                std::vector<std::vector<Key>>& keys, KernelScratch& scratch) {
  begin_top_ell(scratch, block.size(), std::min<std::size_t>(ell, hi - lo));
  for (std::size_t i = 0; i < block.size(); ++i) {
    RangeTopEll(scratch, i, store, block[i], kind).score_range(lo, hi);
  }
  finish_top_ell(scratch, keys);
}

/// Only brute scans split: a kd-tree shard's traversal is hierarchical,
/// not a row scan, and an approx-routed shard's beam search walks the
/// whole graph from fixed seeds.
bool row_splittable(const ShardIndex& shard, bool approx) {
  return !shard.has_tree() && !(approx && shard.ann != nullptr);
}

/// The store a snapshot splits over: the one clean segment holding all of
/// its live points, when that segment is row-splittable.  Null otherwise —
/// several segments already bound each scan, and compaction governs their
/// size.
const FlatStore* splittable_store(const ServeSnapshot& snapshot, bool approx) {
  for (const SegmentView& seg : snapshot.segments) {
    if (seg.live() == 0) continue;
    const bool sole_clean = seg.live() == snapshot.live_points && seg.dead_count == 0;
    return sole_clean && row_splittable(*seg.data, approx) ? &seg.data->store() : nullptr;
  }
  return nullptr;
}

/// The machines a snapshot scoring step skips, with its coverage.  With a
/// `health` registry every machine first passes a deadline-guarded
/// check_call; null = unguarded, every machine answers.  A Retired machine
/// whose slot holds no points is skipped silently (its data lives on
/// survivors).  Every other skipped machine is *reported missing*: a Dead
/// or timed-out one, a Retired one whose slot still holds points (it was
/// recovered after the caller's view was taken, so that view has its
/// points nowhere else), and a null slot — unreachable in the caller's
/// view (e.g. dead when a service snapshot was published) whatever its
/// probe says now.
std::vector<char> skipped_machines(std::span<const SnapshotPtr> snapshots,
                                   MachineHealth* health, Coverage& coverage) {
  DKNN_REQUIRE(health == nullptr || health->machines() == snapshots.size(),
               "guarded scoring: health registry and machine count must align");
  std::vector<char> skip(snapshots.size(), 0);
  for (std::size_t m = 0; m < snapshots.size(); ++m) {
    DKNN_REQUIRE(health != nullptr || snapshots[m] != nullptr,
                 "score_serve_snapshots_batch: null snapshot");
    const CallStatus status = health == nullptr ? CallStatus::Ok : health->check_call(m).status;
    if (status == CallStatus::Retired && snapshots[m] != nullptr &&
        snapshots[m]->live_points == 0) {
      skip[m] = 1;
      continue;
    }
    skip[m] = status != CallStatus::Ok || snapshots[m] == nullptr ? 1 : 0;
    ++coverage.total;
    if (skip[m] != 0) coverage.missing.push_back(static_cast<std::uint32_t>(m));
  }
  return skip;
}

/// The one body of the snapshot entries; a null `health` means unguarded.
GuardedScoreBatch score_snapshots(std::span<const SnapshotPtr> snapshots,
                                  std::span<const PointD> queries, std::uint64_t ell,
                                  MetricKind kind, MachineHealth* health,
                                  const BatchScoringConfig& config) {
  GuardedScoreBatch out;
  const std::vector<char> skip = skipped_machines(snapshots, health, out.coverage);
  std::vector<const FlatStore*> split_store(snapshots.size(), nullptr);
  for (std::size_t m = 0; m < snapshots.size(); ++m) {
    if (!skip[m]) split_store[m] = splittable_store(*snapshots[m], config.approx);
  }
  out.scored = score_tiled_grid(
      snapshots.size(), queries, ell, config,
      [&snapshots, &skip, ell, kind, &config](std::size_t m, std::span<const PointD> block,
                                              std::vector<std::vector<Key>>& keys,
                                              KernelScratch& scratch) {
        if (skip[m]) {
          keys.assign(block.size(), {});
        } else if (config.approx) {
          snapshot_approx_top_ell_batch(*snapshots[m], block, static_cast<std::size_t>(ell),
                                        kind, keys, scratch);
        } else {
          snapshot_top_ell_batch(*snapshots[m], block, static_cast<std::size_t>(ell), kind,
                                 keys, scratch);
        }
      },
      [&split_store](std::size_t m) -> std::size_t {
        return split_store[m] == nullptr ? 0 : split_store[m]->size();
      },
      [&split_store, ell, kind](std::size_t m, std::size_t lo, std::size_t hi,
                                std::span<const PointD> block,
                                std::vector<std::vector<Key>>& keys, KernelScratch& scratch) {
        score_rows(*split_store[m], lo, hi, block, ell, kind, keys, scratch);
      });
  return out;
}

}  // namespace

std::vector<std::vector<std::vector<Key>>> score_vector_shards_batch(
    const std::vector<ShardIndex>& indexes, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind, const BatchScoringConfig& config) {
  return score_tiled_grid(
      indexes.size(), queries, ell, config,
      [&indexes, ell, kind, &config](std::size_t m, std::span<const PointD> block,
                                     std::vector<std::vector<Key>>& keys,
                                     KernelScratch& scratch) {
        shard_top_ell_batch(indexes[m], nullptr, block, static_cast<std::size_t>(ell), kind,
                            config.approx, keys, scratch);
      },
      [&indexes, &config](std::size_t m) -> std::size_t {
        return row_splittable(indexes[m], config.approx) ? indexes[m].store().size() : 0;
      },
      [&indexes, ell, kind](std::size_t m, std::size_t lo, std::size_t hi,
                            std::span<const PointD> block, std::vector<std::vector<Key>>& keys,
                            KernelScratch& scratch) {
        score_rows(indexes[m].store(), lo, hi, block, ell, kind, keys, scratch);
      });
}

std::vector<std::vector<std::vector<Key>>> score_serve_snapshots_batch(
    std::span<const SnapshotPtr> snapshots, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind, const BatchScoringConfig& config) {
  return score_snapshots(snapshots, queries, ell, kind, nullptr, config).scored;
}

GuardedScoreBatch score_serve_snapshots_batch_guarded(
    std::span<const SnapshotPtr> snapshots, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind, MachineHealth& health, const BatchScoringConfig& config) {
  return score_snapshots(snapshots, queries, ell, kind, &health, config);
}

namespace {

/// Machine m's program: the prologue, then every query's step and epilogue.
/// It writes slots[q][m], finished[q][m] (the round it finished query q)
/// and, with a prologue, elected[m] (its election and the round the
/// prologue ended).
Task<void> batch_program(Ctx& ctx, const detail::BatchHooks* hooks, MachineId leader,
                         std::vector<std::vector<detail::QuerySlot>>* slots,
                         std::vector<std::vector<std::uint64_t>>* finished,
                         std::vector<std::pair<ElectionOutcome, std::uint64_t>>* elected) {
  if (hooks->prologue) {
    const ElectionOutcome outcome = co_await hooks->prologue(ctx);
    leader = outcome.leader;
    (*elected)[ctx.id()] = {outcome, ctx.current_round()};
  }
  for (std::size_t q = 0; q < slots->size(); ++q) {
    detail::QuerySlot& slot = (*slots)[q][ctx.id()];
    co_await hooks->step(ctx, q, leader, slot);
    if (hooks->epilogue) co_await hooks->epilogue(ctx, q, leader, slot);
    (*finished)[q][ctx.id()] = ctx.current_round();
  }
}

/// A one-query run's answer under the whole run's report.
GlobalRunResult whole_run(detail::BatchRun run) {
  GlobalRunResult out = std::move(run.result.per_query.front());
  out.report = std::move(run.result.report);
  return out;
}

/// run_selection's step: Algorithm 1 over this machine's keys.
Task<void> select_step(Ctx& ctx, std::vector<Key> mine, std::uint64_t ell,
                       SelectConfig select_config, MachineId leader, detail::QuerySlot& slot) {
  select_config.leader = leader;
  SelectLocal local = co_await dist_select(ctx, std::move(mine), ell, select_config);
  slot.selected = std::move(local.selected);
  slot.iterations = local.iterations;
}

}  // namespace

namespace detail {

Task<void> knn_step(Ctx& ctx, std::vector<Key> mine, std::uint64_t ell, KnnAlgo algo,
                    KnnConfig knn_config, MachineId leader, QuerySlot& slot) {
  knn_config.leader = leader;
  switch (algo) {
    case KnnAlgo::DistKnn:
    case KnnAlgo::CappedSelect: {
      // CappedSelect is §2.2's direct variant: zero pruning attempts drop
      // straight into Algorithm 1 over the kℓ capped points (one attempt,
      // nothing pruned).
      if (algo == KnnAlgo::CappedSelect) knn_config.max_retries = 0;
      KnnLocal local = co_await dist_knn(ctx, std::move(mine), ell, knn_config);
      slot.selected = std::move(local.selected);
      slot.iterations = local.select_iterations;
      slot.attempts = local.attempts;
      slot.candidates = local.candidates;
      slot.prune_ok = local.prune_ok;
      break;
    }
    case KnnAlgo::Simple: {
      SimpleKnnLocal local =
          co_await simple_knn(ctx, std::move(mine), ell, SimpleKnnConfig{leader, true});
      slot.selected = std::move(local.selected);
      break;
    }
    case KnnAlgo::SaukasSong: {
      SaukasSongLocal local =
          co_await saukas_song_select(ctx, std::move(mine), ell, SaukasSongConfig{leader});
      slot.selected = std::move(local.selected);
      slot.iterations = local.iterations;
      break;
    }
    case KnnAlgo::BinSearch: {
      BinSearchLocal local =
          co_await binsearch_select(ctx, std::move(mine), ell, BinSearchConfig{leader});
      slot.selected = std::move(local.selected);
      slot.iterations = local.probes;
      break;
    }
  }
}

std::size_t batch_world(const std::vector<std::vector<std::vector<Key>>>& batch) {
  DKNN_REQUIRE(!batch.empty(), "need at least one query");
  const std::size_t world = batch.front().size();
  DKNN_REQUIRE(world > 0, "need at least one machine");
  for (const auto& per_machine : batch) {
    DKNN_REQUIRE(per_machine.size() == world, "all queries must cover the same machines");
  }
  return world;
}

BatchRun run_batch(std::uint32_t world, std::size_t queries, MachineId leader,
                   const EngineConfig& engine_config, const BatchHooks& hooks) {
  EngineConfig config = engine_config;
  config.world_size = world;
  Engine engine(config);
  std::vector<std::vector<QuerySlot>> slots(queries, std::vector<QuerySlot>(world));
  std::vector<std::vector<std::uint64_t>> finished(queries, std::vector<std::uint64_t>(world, 0));
  std::vector<std::pair<ElectionOutcome, std::uint64_t>> elected(hooks.prologue ? world : 0);
  RunReport report = engine.run([&](Ctx& ctx) {
    return batch_program(ctx, &hooks, leader, &slots, &finished, &elected);
  });

  BatchRun out{{{}, std::move(report)}, elected.empty() ? leader : elected[0].first.leader};
  std::uint64_t after_previous = 0;  // F(q − 1) + 1
  for (const auto& [outcome, round] : elected) {
    DKNN_ASSERT(outcome.leader == out.leader, "machines disagree on the leader");
    after_previous = std::max(after_previous, round + 1);
  }
  if (!elected.empty()) {
    out.prologue_rounds = elected[out.leader].second;
    out.attempts = elected[0].first.attempts;
  }
  out.result.per_query.reserve(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    const QuerySlot& lead = slots[q][out.leader];
    GlobalRunResult one{{}, {}, lead.iterations, lead.attempts, lead.candidates, lead.prune_ok};
    for (const QuerySlot& slot : slots[q]) {
      one.keys.insert(one.keys.end(), slot.selected.begin(), slot.selected.end());
    }
    std::sort(one.keys.begin(), one.keys.end());
    const std::uint64_t through = *std::max_element(finished[q].begin(), finished[q].end()) + 1;
    one.report.rounds = through - after_previous;
    after_previous = through;
    out.result.per_query.push_back(std::move(one));
  }
  return out;
}

}  // namespace detail

BatchRunResult run_knn_batch(const std::vector<std::vector<std::vector<Key>>>& scored_batch,
                             std::uint64_t ell, KnnAlgo algo, const EngineConfig& engine_config,
                             const KnnConfig& knn_config) {
  const std::size_t world = detail::batch_world(scored_batch);
  const auto step = [&](Ctx& ctx, std::size_t q, MachineId leader, detail::QuerySlot& slot) {
    return detail::knn_step(ctx, scored_batch[q][ctx.id()], ell, algo, knn_config, leader, slot);
  };
  return detail::run_batch(static_cast<std::uint32_t>(world), scored_batch.size(),
                           knn_config.leader, engine_config, {.step = std::ref(step)})
      .result;
}

const char* knn_algo_name(KnnAlgo algo) {
  switch (algo) {
    case KnnAlgo::DistKnn: return "algorithm-2";
    case KnnAlgo::CappedSelect: return "capped-select";
    case KnnAlgo::Simple: return "simple";
    case KnnAlgo::SaukasSong: return "saukas-song";
    case KnnAlgo::BinSearch: return "binary-search";
  }
  return "unknown";
}

GlobalRunResult run_knn(const std::vector<std::vector<Key>>& scored_shards, std::uint64_t ell,
                        KnnAlgo algo, const EngineConfig& engine_config,
                        const KnnConfig& knn_config) {
  DKNN_REQUIRE(!scored_shards.empty(), "need at least one shard");
  const auto step = [&](Ctx& ctx, std::size_t, MachineId leader, detail::QuerySlot& slot) {
    return detail::knn_step(ctx, scored_shards[ctx.id()], ell, algo, knn_config, leader, slot);
  };
  return whole_run(detail::run_batch(static_cast<std::uint32_t>(scored_shards.size()), 1,
                                     knn_config.leader, engine_config, {.step = std::ref(step)}));
}

GlobalRunResult run_selection(const std::vector<std::vector<Key>>& key_shards, std::uint64_t ell,
                              const EngineConfig& engine_config,
                              const SelectConfig& select_config) {
  DKNN_REQUIRE(!key_shards.empty(), "need at least one shard");
  const auto step = [&](Ctx& ctx, std::size_t, MachineId leader, detail::QuerySlot& slot) {
    return select_step(ctx, key_shards[ctx.id()], ell, select_config, leader, slot);
  };
  return whole_run(detail::run_batch(static_cast<std::uint32_t>(key_shards.size()), 1,
                                     select_config.leader, engine_config,
                                     {.step = std::ref(step)}));
}

QuantileResult run_quantile(const std::vector<std::vector<Key>>& key_shards, double phi,
                            const EngineConfig& engine_config,
                            const SelectConfig& select_config) {
  DKNN_REQUIRE(phi > 0.0 && phi <= 1.0, "quantile phi must be in (0, 1]");
  std::uint64_t total = 0;
  for (const auto& shard : key_shards) total += shard.size();
  DKNN_REQUIRE(total > 0, "quantile of an empty dataset");
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(total))));

  QuantileResult result;
  result.rank = std::min(rank, total);
  result.total = total;
  result.run = run_selection(key_shards, result.rank, engine_config, select_config);
  DKNN_ASSERT(result.run.keys.size() == result.rank, "selection returned wrong count");
  result.value = result.run.keys.back();
  return result;
}

std::vector<Key> expected_smallest(const std::vector<std::vector<Key>>& shards,
                                   std::uint64_t ell) {
  std::vector<Key> all;
  for (const auto& shard : shards) all.insert(all.end(), shard.begin(), shard.end());
  return top_ell_smallest(std::span<const Key>(all), static_cast<std::size_t>(ell));
}

}  // namespace dknn
