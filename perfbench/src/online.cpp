// online_churn_k16_d8 — the serving path.  A live KnnService (k = 16,
// n = 65,536 uniform points in d = 8, ℓ = 16) answers single query() calls
// drawn Zipf(1.1) from a 4,096-point pool, whose hot set moves every 128
// queries, behind a 4,096-entry result cache.  Before every second query
// one insert and one erase of a uniformly chosen live id land, and a
// synchronous compact_now() runs every 1,024 mutations.  The low seal
// threshold makes every machine seal, and compaction install merged
// segments, several times per run.

#include <memory>
#include <optional>
#include <unordered_map>

#include "common.hpp"
#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "rng/sampling.hpp"

namespace perfbench {
namespace {

using namespace dknn;

constexpr std::uint32_t kMachines = 16;
constexpr std::size_t kDim = 8;
constexpr std::uint64_t kEll = 16;
constexpr std::size_t kPoolSize = 4096;
constexpr double kZipfExponent = 1.1;
/// Queries between popularity shifts.  Zipf(1.1) over 4,096 points sends
/// 43 % of the traffic to its ten hottest points, so with fixed popularity
/// a run's per-query averages rest on those few points and swing from
/// seed to seed; moving the hot set keeps the skew within every window
/// and averages over many hot sets per run.
constexpr std::uint64_t kDriftEvery = 128;
constexpr std::size_t kCacheEntries = 4096;
constexpr std::size_t kSealThreshold = 32;
constexpr std::uint64_t kCompactEvery = 1024;  ///< mutations between compact_now() calls
constexpr std::uint64_t kCheckPeriod = 32;     ///< one query in this many meets the oracle
constexpr std::size_t kWarmupQueries = 64;
/// Traced run: facade ops between two stage catch-ups.  The prefix
/// lengths below are multiples of it.
constexpr std::uint64_t kChunk = 64;

struct Size {
  std::size_t points;
  std::uint64_t prefix_ops;  ///< the fixed prefix the counts and fingerprint cover
  int setups;
};

Size size_of(const Options& options) {
  return options.small ? Size{4096, 2048, 2} : Size{65536, 8192, 9};
}

ServeConfig serve_config() {
  ServeConfig config;
  config.seal_threshold = kSealThreshold;
  config.policy = ScoringPolicy::Auto;
  return config;
}

KnnService build_service(std::vector<PointD> points, std::uint64_t seed) {
  return KnnServiceBuilder()
      .machines(kMachines)
      .ell(kEll)
      .seed(seed)
      .scoring(BatchScoringConfig{.threads = 1})
      .engine(EngineConfig{})
      .live(serve_config())
      .cache_capacity(kCacheEntries)
      .dataset(std::move(points))
      .build();
}

PointD uniform_point(Rng& rng) {
  std::vector<double> coords(kDim);
  for (double& c : coords) c = 2.0 * rng.uniform01() - 1.0;
  return PointD(std::move(coords));
}

enum class OpKind : std::uint8_t { Query, Insert, Erase };

struct Op {
  OpKind kind = OpKind::Query;
  std::size_t pool_index = 0;
  PointD point;
  PointId id = 0;
};

/// The seeded operation stream and the membership it implies.  Replaying
/// a stream from the same seed and initial shards yields the same ops, so
/// the oracle check and the stage replay rebuild the membership at every
/// answer's epoch without logging it.
class ChurnStream {
 public:
  ChurnStream(std::uint64_t seed, const std::vector<VectorShard>& shards)
      : rng_(Rng(seed).split(3)), zipf_(kPoolSize, kZipfExponent) {
    for (const VectorShard& shard : shards) {
      for (std::size_t i = 0; i < shard.ids.size(); ++i) add(shard.points[i], shard.ids[i]);
    }
  }

  /// The cycle is query, insert, erase, query: one insert and one erase
  /// before every second query.
  Op next() {
    Op op;
    switch (step_++ % 4) {
      case 1:
        op.kind = OpKind::Insert;
        op.point = uniform_point(rng_);
        op.id = mint();
        add(op.point, op.id);
        break;
      case 2: {
        op.kind = OpKind::Erase;
        const std::size_t index = rng_.below(ids_.size());
        op.id = ids_[index];
        remove(index);
        break;
      }
      default:
        if (queries_++ % kDriftEvery == 0) offset_ = rng_.below(kPoolSize);
        op.pool_index = (zipf_.sample(rng_) + offset_) % kPoolSize;
        break;
    }
    return op;
  }

  [[nodiscard]] const std::vector<PointD>& points() const { return points_; }
  [[nodiscard]] const std::vector<PointId>& ids() const { return ids_; }

 private:
  void add(const PointD& point, PointId id) {
    slot_.emplace(id, ids_.size());
    ids_.push_back(id);
    points_.push_back(point);
  }

  void remove(std::size_t index) {
    const PointId id = ids_[index];
    if (index + 1 != ids_.size()) {
      ids_[index] = ids_.back();
      points_[index] = std::move(points_.back());
      slot_[ids_[index]] = index;
    }
    ids_.pop_back();
    points_.pop_back();
    slot_.erase(id);
  }

  /// A fresh id, distinct from every live one.
  PointId mint() {
    for (;;) {
      const PointId id = rng_.between(1, (std::uint64_t{1} << 63) - 1);
      if (slot_.count(id) == 0) return id;
    }
  }

  Rng rng_;
  ZipfSampler zipf_;
  std::uint64_t step_ = 0;
  std::uint64_t queries_ = 0;
  std::size_t offset_ = 0;  ///< pool index of the current popularity rank 0
  std::vector<PointId> ids_;
  std::vector<PointD> points_;
  std::unordered_map<PointId, std::size_t> slot_;
};

struct QueryRecord {
  std::uint64_t op = 0;  ///< index in the op stream
  std::vector<Key> keys;
  bool cache_hit = false;
  std::uint64_t latency_ns = 0;
};

/// One closed-loop drive of the facade, advanced one op at a time by step().
struct FacadePass {
  std::uint64_t ops = 0;
  std::uint64_t mutations = 0;
  std::uint64_t compactions = 0;
  std::uint64_t epoch = 0;  ///< the epoch the latest mutation returned
  Samples query;
  Samples insert;
  Samples erase;
  Samples write;
  Samples compact;
  std::vector<QueryRecord> records;
  // Counts over the fixed prefix.
  std::uint64_t prefix_scored = 0;
  std::uint64_t prefix_rounds = 0;
  std::uint64_t prefix_messages = 0;
  ServiceStats prefix_stats;
  std::string prefix_registry;
};

/// Runs the stream's next op (and the compaction it makes due) against the
/// facade.  Keeps every query's answer when `keep_all`, else only the
/// oracle's seeded sample; snapshots the counters when the prefix ends.
void step(KnnService& service, ChurnStream& stream, const std::vector<PointD>& pool,
          std::uint64_t prefix_ops, bool keep_all, std::uint64_t seed, FacadePass& pass,
          RunResult& result) {
  const std::uint64_t index = pass.ops++;
  const Op op = stream.next();
  try {
    if (op.kind == OpKind::Query) {
      QueryResult answer;
      const std::uint64_t ns = time_ns([&] { answer = service.query(pool[op.pool_index]); });
      pass.query.add(ns);
      if (answer.epoch != pass.epoch) {
        result.fail("query at op " + std::to_string(index) + " answered at epoch " +
                    std::to_string(answer.epoch) + ", expected " + std::to_string(pass.epoch));
      }
      if (index < prefix_ops && !answer.cache_hit) {
        ++pass.prefix_scored;
        pass.prefix_rounds += answer.report.rounds;
        pass.prefix_messages += answer.report.traffic.messages_sent();
      }
      if (keep_all || sampled(seed, index, kCheckPeriod)) {
        pass.records.push_back({index, std::move(answer.keys), answer.cache_hit, ns});
      }
    } else if (op.kind == OpKind::Insert) {
      const std::uint64_t ns = time_ns([&] { pass.epoch = service.insert(op.point, op.id); });
      pass.insert.add(ns);
      pass.write.add(ns);
    } else {
      std::optional<std::uint64_t> erased;
      const std::uint64_t ns = time_ns([&] { erased = service.erase(op.id); });
      pass.erase.add(ns);
      pass.write.add(ns);
      if (erased.has_value()) {
        pass.epoch = *erased;
      } else {
        result.fail("erase of live id " + std::to_string(op.id) + " found nothing");
      }
    }
    if (op.kind != OpKind::Query && ++pass.mutations % kCompactEvery == 0) {
      ++pass.compactions;
      pass.compact.add(time_ns([&] { pass.epoch = service.compact_now(); }));
    }
  } catch (const std::exception& error) {
    result.fail(std::string("op threw: ") + error.what());
  }
  if (pass.ops == prefix_ops) {
    pass.prefix_stats = service.stats();
    pass.prefix_registry = service.metrics_json();
  }
}

/// Compares the sampled answers with a brute-force oracle over the
/// membership at each answer's epoch; returns the mean recall@ℓ.
double check_answers(const FacadePass& pass, std::uint64_t seed,
                     const std::vector<VectorShard>& shards, const std::vector<PointD>& pool,
                     RunResult& result) {
  ChurnStream replay(seed, shards);
  double recall = 0.0;
  std::size_t checked = 0;
  std::size_t next = 0;
  for (std::uint64_t index = 0; index < pass.ops && next < pass.records.size(); ++index) {
    const Op op = replay.next();
    if (pass.records[next].op != index) continue;
    const QueryRecord& record = pass.records[next++];
    if (!sampled(seed, index, kCheckPeriod)) continue;
    const std::vector<Key> expected =
        oracle_top_ell(replay.points(), replay.ids(), pool[op.pool_index], kEll);
    recall += overlap(record.keys, expected);
    ++checked;
    if (record.keys != expected) {
      result.fail("query at op " + std::to_string(index) + " differs from the oracle");
    }
  }
  return checked == 0 ? 0.0 : recall / static_cast<double>(checked);
}

/// The serve/ counters of the process-wide registry.
struct ServeCounters {
  std::uint64_t seals = 0;
  std::uint64_t installs = 0;
  std::uint64_t aborts = 0;
  std::uint64_t publishes = 0;
  std::uint64_t flushes = 0;

  static ServeCounters read(const std::string& json) {
    return {registry_counter(json, "dknn_store_seals_total"),
            registry_counter(json, "dknn_store_compaction_installs_total"),
            registry_counter(json, "dknn_compaction_aborts_total"),
            registry_counter(json, "dknn_store_epoch_publishes_total"),
            registry_counter(json, "dknn_cache_flushes_total")};
  }
  void add_delta(const ServeCounters& from, const ServeCounters& to) {
    seals += to.seals - from.seals;
    installs += to.installs - from.installs;
    aborts += to.aborts - from.aborts;
    publishes += to.publishes - from.publishes;
    flushes += to.flushes - from.flushes;
  }
};

TreeStats tree_total(const std::vector<std::unique_ptr<SegmentStore>>& stores) {
  TreeStats total;
  for (const auto& store : stores) total += store->tree_stats();
  return total;
}

/// The traced run's stage side: the same op stream through the public
/// stages the facade composes — one replica SegmentStore per machine fed
/// in the facade's round-robin order, compacted at the same points, then
/// snapshot(), score_serve_snapshots_batch and run_knn_batch per query.
class StageReplica {
 public:
  StageReplica(std::uint64_t seed, const std::vector<VectorShard>& shards)
      : stream_(seed, shards), snapshots_(kMachines) {
    for (std::size_t m = 0; m < shards.size(); ++m) {
      auto store = std::make_unique<SegmentStore>(kDim, serve_config());
      store->insert_batch(shards[m].points, shards[m].ids);
      store->seal();
      stores_.push_back(std::move(store));
      for (const PointId id : shards[m].ids) home_.emplace(id, m);
    }
  }

  /// Replays the ops the facade ran since the last call, timing each stage
  /// of every query the facade scored and asserting the replica's keys
  /// equal the facade's.
  void catch_up(const FacadePass& pass, const std::vector<PointD>& pool, Layers& layers,
                RunResult& result) {
    for (; replayed_ < pass.ops; ++replayed_) {
      const Op op = stream_.next();
      if (op.kind == OpKind::Query) {
        const QueryRecord& record = pass.records.at(next_record_++);
        if (!record.cache_hit) score(record, pool[op.pool_index], layers, result);
        continue;
      }
      if (op.kind == OpKind::Insert) {
        const std::size_t machine = next_machine_++ % kMachines;
        layers.replica_insert.add(time_ns([&] { stores_[machine]->insert(op.point, op.id); }));
        home_.emplace(op.id, machine);
      } else {
        const std::size_t machine = home_.at(op.id);
        layers.replica_erase.add(time_ns([&] { (void)stores_[machine]->erase(op.id); }));
        home_.erase(op.id);
      }
      if (++mutations_ % kCompactEvery == 0) compact();
    }
  }

 private:
  void score(const QueryRecord& record, const PointD& query, Layers& layers, RunResult& result) {
    const std::uint64_t snapshot_ns = time_ns([&] {
      for (std::size_t m = 0; m < kMachines; ++m) snapshots_[m] = stores_[m]->snapshot();
    });
    const TreeStats before = tree_total(stores_);
    std::vector<std::vector<std::vector<Key>>> scored;
    const std::uint64_t score_ns = time_ns([&] {
      scored = score_serve_snapshots_batch(snapshots_, std::span<const PointD>(&query, 1), kEll,
                                           MetricKind::SquaredEuclidean,
                                           BatchScoringConfig{.threads = 1});
    });
    const TreeStats after = tree_total(stores_);
    BatchRunResult selected;
    const std::uint64_t select_ns = time_ns([&] {
      selected = run_knn_batch(scored, kEll, KnnAlgo::DistKnn, EngineConfig{}, KnnConfig{});
    });
    if (selected.per_query.at(0).keys != record.keys) {
      result.fail("replica keys differ from the facade's at op " + std::to_string(record.op));
    }
    ++layers.scored;
    layers.facade_us += static_cast<double>(record.latency_ns) * 1e-3;
    layers.snapshot_us += static_cast<double>(snapshot_ns) * 1e-3;
    layers.score_us += static_cast<double>(score_ns) * 1e-3;
    layers.select_us += static_cast<double>(select_ns) * 1e-3;
    layers.compute_us += static_cast<double>(selected.report.total_comp_ns) * 1e-3;
    layers.attempts += selected.per_query[0].attempts;
    layers.candidates += static_cast<double>(selected.per_query[0].candidates);
    layers.bits += static_cast<double>(selected.report.traffic.bits_sent());
    layers.shard_scorings += kMachines;
    layers.tree_queries += after.queries - before.queries;
    layers.tree_points += after.points_scored - before.points_scored;
    layers.rows += static_cast<double>(after.points_scored - before.points_scored);
    // Clean tree segments run the kd-hybrid; every other segment (the
    // delta, tombstoned ones, tree-less ones) hands all its live rows to
    // the brute kernels.
    for (const SnapshotPtr& snapshot : snapshots_) {
      for (const SegmentView& segment : snapshot->segments) {
        if (segment.live() == 0) continue;
        if (segment.dead_count == 0 && segment.data->tree != nullptr) {
          layers.tree_rows += segment.rows();
        } else {
          layers.rows += static_cast<double>(segment.live());
        }
      }
    }
  }

  /// compact_now()'s loop, store by store.
  void compact() {
    const CompactionConfig compaction{};
    for (const auto& store : stores_) {
      std::size_t consecutive_aborts = 0;
      while (consecutive_aborts < 8) {
        const SegmentStore::CompactionPlan plan = store->plan_compaction(compaction);
        if (plan.empty()) break;
        auto merged = SegmentStore::merge_segments(plan.victims, serve_config());
        consecutive_aborts =
            store->install_compaction(plan, std::move(merged)) ? 0 : consecutive_aborts + 1;
      }
    }
  }

  ChurnStream stream_;
  std::vector<std::unique_ptr<SegmentStore>> stores_;
  std::unordered_map<PointId, std::size_t> home_;
  std::vector<SnapshotPtr> snapshots_;
  std::uint64_t replayed_ = 0;
  std::uint64_t next_machine_ = 0;
  std::uint64_t mutations_ = 0;
  std::size_t next_record_ = 0;
};

}  // namespace

RunResult run_online(const Options& options) {
  const Size size = size_of(options);
  const std::uint64_t seed = options.seed;
  const Rng root(seed);
  Rng data_rng = root.split(1);
  Rng pool_rng = root.split(2);
  Rng warm_rng = root.split(9);
  const std::vector<PointD> points = uniform_points(size.points, kDim, 1.0, data_rng);
  const std::vector<PointD> pool = uniform_points(kPoolSize, kDim, 1.0, pool_rng);
  // The builder's own sharding, reproduced: same seed, same shards and ids.
  Rng shard_rng(seed);
  const std::vector<VectorShard> shards =
      make_vector_shards(points, kMachines, PartitionScheme::RoundRobin, shard_rng);

  RunResult result;
  std::vector<double> setups;
  KnnService service;
  for (int r = 0; r < size.setups; ++r) {
    service = KnnService();
    std::vector<PointD> copy = points;
    const PointD warm = uniform_point(warm_rng);
    const Clock::time_point start = Clock::now();
    service = build_service(std::move(copy), seed);
    (void)service.query(warm);
    setups.push_back(seconds_since(start));
  }
  for (std::size_t i = 1; i < kWarmupQueries; ++i) (void)service.query(uniform_point(warm_rng));

  const ServiceStats base_stats = service.stats();
  const std::string base_registry = service.metrics_json();
  ChurnStream stream(seed, shards);
  FacadePass pass;
  pass.epoch = service.snapshot_epoch();
  Layers layers;
  // Facade-only serve/ counters: whole pass and fixed prefix.
  ServeCounters facade;
  ServeCounters facade_prefix;
  const Clock::time_point start = Clock::now();
  if (!options.trace) {
    while (pass.ops < size.prefix_ops || seconds_since(start) < options.seconds) {
      step(service, stream, pool, size.prefix_ops, false, seed, pass, result);
    }
    facade_prefix.add_delta(ServeCounters::read(base_registry),
                            ServeCounters::read(pass.prefix_registry));
  } else {
    // Facade and stages alternate every kChunk ops, so both sides run in
    // the same host state and the residual measures the facade, not the
    // host's drift.  Registry reads at chunk edges keep the replica's
    // seals and publishes out of the facade's counters.
    StageReplica replica(seed, shards);
    while (pass.ops < size.prefix_ops || seconds_since(start) < options.seconds) {
      const ServeCounters before = ServeCounters::read(service.metrics_json());
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        step(service, stream, pool, size.prefix_ops, true, seed, pass, result);
      }
      facade.add_delta(before, ServeCounters::read(service.metrics_json()));
      if (pass.ops == size.prefix_ops) facade_prefix = facade;
      replica.catch_up(pass, pool, layers, result);
    }
  }
  const double elapsed_s = seconds_since(start);
  result.attempted = pass.ops + pass.compactions;
  const double rss = peak_rss_mb();
  const ServiceStats end_stats = service.stats();

  const double per_scored = pass.prefix_scored == 0 ? 0.0 : 1.0 / pass.prefix_scored;
  const double recall = check_answers(pass, seed, shards, pool, result);

  EndToEnd e2e;
  e2e.setup_s = median(setups);
  e2e.ops_per_s = static_cast<double>(pass.ops) / elapsed_s;
  e2e.query_p90_ms = pass.query.quantile_ms(0.90);
  e2e.rounds_per_query = static_cast<double>(pass.prefix_rounds) * per_scored;
  e2e.messages_per_query = static_cast<double>(pass.prefix_messages) * per_scored;
  e2e.recall = recall;
  e2e.peak_rss_mb = rss;
  result.fingerprint_value("rounds_per_query", e2e.rounds_per_query);
  result.fingerprint_value("messages_per_query", e2e.messages_per_query);
  result.fingerprint_value("recall", e2e.recall);
  result.fingerprint_value(
      "cache_hits", static_cast<double>(pass.prefix_stats.cache_hits - base_stats.cache_hits));
  result.fingerprint_value("seals", static_cast<double>(facade_prefix.seals));
  result.fingerprint_value("compaction_installs", static_cast<double>(facade_prefix.installs));
  result.fingerprint_value(
      "tree_queries",
      static_cast<double>(pass.prefix_stats.tree.queries - base_stats.tree.queries));
  if (!options.trace) {
    e2e.emit(result);
    return result;
  }

  layers.dim = kDim;
  layers.facade_insert = pass.insert;
  layers.facade_erase = pass.erase;
  layers.facade_write = pass.write;
  layers.facade_query = pass.query;
  layers.compact = pass.compact;
  layers.writes = pass.mutations;
  layers.seals = facade_prefix.seals;
  layers.installs = facade_prefix.installs;
  layers.aborts = facade.aborts;
  layers.publishes = facade.publishes;
  layers.flushes = facade.flushes;
  layers.queries = end_stats.queries - base_stats.queries;
  layers.cache_hits = end_stats.cache_hits - base_stats.cache_hits;
  layers.emit(result);
  return result;
}

}  // namespace perfbench
