// approx_clustered_d16 — the only workload where ann/ does the work.  A
// static KnnService under ScoringPolicy::Approx with the default AnnConfig
// (k = 2, ℓ = 16) holds n = 20,000 points of a 64-component Gaussian
// mixture in d = 16 (centres in ±10, spread 4) and answers single query()
// calls drawn from the same mixture by graph beam search plus exact rerank.
// Answers are not exact: recall@ℓ is measured against an exact twin built
// with the same seed.

#include <algorithm>
#include <unordered_map>

#include "common.hpp"
#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/metric.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using namespace dknn;

constexpr std::uint32_t kMachines = 2;
constexpr std::size_t kDim = 16;
constexpr std::uint64_t kEll = 16;
// Overlapping clusters keep the k-NN graph connected.  Well-separated
// clusters (centres in ±100, spread 2) split it into one component per
// cluster, and recall then hinges on which components the few entry points
// land in: recall, rounds and setup swing by 25-50 % from seed to seed.
constexpr std::uint32_t kClusters = 64;
constexpr double kCentreBox = 10.0;
constexpr double kSpread = 4.0;
constexpr std::uint64_t kCheckPeriod = 32;  ///< one answer in this many is checked for exact keys
constexpr std::size_t kWarmupQueries = 64;
/// Traced run: facade queries between two stage catch-ups.  The prefix
/// lengths below are multiples of it.
constexpr std::uint64_t kChunk = 64;

struct Size {
  std::size_t points;
  std::uint64_t prefix_queries;  ///< the fixed prefix recall, counts and fingerprint cover
  int setups;
};

Size size_of(const Options& options) {
  return options.small ? Size{6000, 256, 2} : Size{20000, 4096, 3};
}

KnnService build_service(std::vector<PointD> points, std::uint64_t seed, ScoringPolicy policy) {
  return KnnServiceBuilder()
      .machines(kMachines)
      .ell(kEll)
      .seed(seed)
      .policy(policy)
      .scoring(BatchScoringConfig{.threads = 1})
      .engine(EngineConfig{})
      .dataset(std::move(points))
      .build();
}

struct QueryRecord {
  std::uint64_t query = 0;  ///< index in the query stream
  PointD point;
  std::vector<Key> keys;
  std::uint64_t latency_ns = 0;
};

/// One closed-loop drive of the facade, advanced one query at a time by
/// step().
struct FacadePass {
  std::uint64_t queries = 0;
  Samples query;
  std::vector<QueryRecord> records;  ///< the prefix plus the checked sample (all when traced)
  // Counts over the fixed prefix.
  std::uint64_t prefix_rounds = 0;
  std::uint64_t prefix_messages = 0;
  std::string prefix_registry;
};

/// Sends the stream's next query to the facade.
void step(KnnService& service, const GaussianMixture& mixture, Rng& stream,
          std::uint64_t prefix_queries, bool keep_all, std::uint64_t seed, FacadePass& pass,
          RunResult& result) {
  const std::uint64_t index = pass.queries++;
  PointD point = mixture.sample(1, stream).front().x;
  try {
    QueryResult answer;
    const std::uint64_t ns = time_ns([&] { answer = service.query(point); });
    pass.query.add(ns);
    if (index < prefix_queries) {
      pass.prefix_rounds += answer.report.rounds;
      pass.prefix_messages += answer.report.traffic.messages_sent();
    }
    if (keep_all || index < prefix_queries || sampled(seed, index, kCheckPeriod)) {
      pass.records.push_back({index, std::move(point), std::move(answer.keys), ns});
    }
  } catch (const std::exception& error) {
    result.fail(std::string("query threw: ") + error.what());
  }
  if (pass.queries == prefix_queries) pass.prefix_registry = service.metrics_json();
}

/// The ann/ search counters of the process-wide registry.
struct AnnCounters {
  std::uint64_t hops = 0;
  std::uint64_t frontier = 0;
  std::uint64_t rerank = 0;

  static AnnCounters read(const std::string& json) {
    return {registry_histogram(json, "dknn_ann_search_hops", "sum"),
            registry_histogram(json, "dknn_ann_frontier_scored_points", "sum"),
            registry_histogram(json, "dknn_ann_rerank_candidates", "sum")};
  }
  void add_delta(const AnnCounters& from, const AnnCounters& to) {
    hops += to.hops - from.hops;
    frontier += to.frontier - from.frontier;
    rerank += to.rerank - from.rerank;
  }
};

/// The traced run's stage side: make_shard_indexes over the builder's
/// shards (graphs built before timing), then score_vector_shards_batch with
/// approx routing and run_knn_batch per query.
class StageReplica {
 public:
  explicit StageReplica(const std::vector<VectorShard>& shards, const PointD& warm) {
    ann::AnnConfig ann_config;
    ann_config.metric = MetricKind::SquaredEuclidean;
    indexes_ = make_shard_indexes(shards, ScoringPolicy::Approx, KdRangeIndex::kDefaultLeafSize,
                                  ann_config);
    scoring_.approx = true;
    (void)score_vector_shards_batch(indexes_, std::span<const PointD>(&warm, 1), kEll,
                                    MetricKind::SquaredEuclidean, scoring_);
  }

  /// Replays the queries the facade answered since the last call, timing
  /// each stage and asserting the replica's keys equal the facade's.
  void catch_up(const FacadePass& pass, Layers& layers, RunResult& result) {
    for (; replayed_ < pass.records.size(); ++replayed_) {
      const QueryRecord& record = pass.records[replayed_];
      std::vector<std::vector<std::vector<Key>>> scored;
      const std::uint64_t score_ns = time_ns([&] {
        scored = score_vector_shards_batch(indexes_, std::span<const PointD>(&record.point, 1),
                                           kEll, MetricKind::SquaredEuclidean, scoring_);
      });
      BatchRunResult selected;
      const std::uint64_t select_ns = time_ns([&] {
        selected = run_knn_batch(scored, kEll, KnnAlgo::DistKnn, EngineConfig{}, KnnConfig{});
      });
      if (selected.per_query.at(0).keys != record.keys) {
        result.fail("replica keys differ from the facade's at query " +
                    std::to_string(record.query));
      }
      ++layers.scored;
      layers.facade_us += static_cast<double>(record.latency_ns) * 1e-3;
      layers.score_us += static_cast<double>(score_ns) * 1e-3;
      layers.select_us += static_cast<double>(select_ns) * 1e-3;
      layers.compute_us += static_cast<double>(selected.report.total_comp_ns) * 1e-3;
      layers.attempts += selected.per_query[0].attempts;
      layers.candidates += static_cast<double>(selected.per_query[0].candidates);
      layers.bits += static_cast<double>(selected.report.traffic.bits_sent());
      layers.shard_scorings += kMachines;
      for (const ShardIndex& index : indexes_) {
        if (index.ann == nullptr) layers.rows += static_cast<double>(index.store().size());
      }
    }
  }

 private:
  std::vector<ShardIndex> indexes_;
  BatchScoringConfig scoring_{.threads = 1};
  std::size_t replayed_ = 0;
};

}  // namespace

RunResult run_approx(const Options& options) {
  const Size size = size_of(options);
  const std::uint64_t seed = options.seed;
  const Rng root(seed);
  Rng centre_rng = root.split(1);
  Rng train_rng = root.split(2);
  Rng warm_rng = root.split(9);
  const GaussianMixture mixture(ClusterSpec{kDim, kClusters, kCentreBox, kSpread}, centre_rng);
  std::vector<PointD> points;
  for (LabeledPoint& sample : mixture.sample(size.points, train_rng)) {
    points.push_back(std::move(sample.x));
  }
  // The builder's own sharding, reproduced: same seed, same shards and ids.
  Rng shard_rng(seed);
  const std::vector<VectorShard> shards =
      make_vector_shards(points, kMachines, PartitionScheme::RoundRobin, shard_rng);
  std::unordered_map<PointId, const PointD*> point_of;
  for (const VectorShard& shard : shards) {
    for (std::size_t i = 0; i < shard.ids.size(); ++i) {
      point_of.emplace(shard.ids[i], &shard.points[i]);
    }
  }

  // setup_s ends after a warm-up query, so it includes the lazy graph build
  // the first timed query would otherwise pay.
  RunResult result;
  std::vector<double> setups;
  KnnService service;
  std::string before_build;
  std::string after_build;
  for (int r = 0; r < size.setups; ++r) {
    service = KnnService();
    std::vector<PointD> copy = points;
    const PointD warm = mixture.sample(1, warm_rng).front().x;
    // The process-wide registry metrics_json() exposes, read while no
    // service is built.
    before_build = obs::registry().json_text();
    const Clock::time_point start = Clock::now();
    service = build_service(std::move(copy), seed, ScoringPolicy::Approx);
    (void)service.query(warm);
    setups.push_back(seconds_since(start));
    after_build = service.metrics_json();
  }
  for (std::size_t i = 1; i < kWarmupQueries; ++i) {
    (void)service.query(mixture.sample(1, warm_rng).front().x);
  }

  const std::string base_registry = service.metrics_json();
  Rng stream = root.split(3);
  FacadePass pass;
  Layers layers;
  AnnCounters facade;         // facade-only search counters, whole pass
  AnnCounters facade_prefix;  // and over the fixed prefix
  const Clock::time_point start = Clock::now();
  if (!options.trace) {
    while (pass.queries < size.prefix_queries || seconds_since(start) < options.seconds) {
      step(service, mixture, stream, size.prefix_queries, false, seed, pass, result);
    }
    facade_prefix.add_delta(AnnCounters::read(base_registry),
                            AnnCounters::read(pass.prefix_registry));
  } else {
    // Facade and stages alternate every kChunk queries, so both sides run
    // in the same host state; registry reads at chunk edges keep the
    // replica's searches out of the facade's counters.
    StageReplica replica(shards, mixture.sample(1, warm_rng).front().x);
    const Clock::time_point begin = Clock::now();
    while (pass.queries < size.prefix_queries || seconds_since(begin) < options.seconds) {
      const AnnCounters before = AnnCounters::read(service.metrics_json());
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        step(service, mixture, stream, size.prefix_queries, true, seed, pass, result);
      }
      facade.add_delta(before, AnnCounters::read(service.metrics_json()));
      if (pass.queries == size.prefix_queries) facade_prefix = facade;
      replica.catch_up(pass, layers, result);
    }
  }
  const double elapsed_s = seconds_since(start);
  result.attempted = pass.queries;
  const double rss = peak_rss_mb();
  service = KnnService();

  // Checks: every sampled answer holds ℓ exact (rank, id) keys of real
  // points, ascending; recall@ℓ over the prefix against an exact twin.
  const SquaredEuclidean metric;
  std::vector<PointD> prefix_points;
  for (const QueryRecord& record : pass.records) {
    if (record.query < size.prefix_queries) prefix_points.push_back(record.point);
    if (!sampled(seed, record.query, kCheckPeriod)) continue;
    bool exact =
        record.keys.size() == kEll && std::is_sorted(record.keys.begin(), record.keys.end());
    for (const Key& key : record.keys) {
      const auto it = point_of.find(key.id);
      exact = exact && it != point_of.end() &&
              key.rank == encode_distance(metric(*it->second, record.point));
    }
    if (!exact) result.fail("query " + std::to_string(record.query) + " returned inexact keys");
  }
  KnnService twin = build_service(points, seed, ScoringPolicy::Auto);
  const BatchQueryResult exact = twin.query_batch(prefix_points);
  double recall = 0.0;
  for (std::size_t q = 0; q < prefix_points.size(); ++q) {
    recall += overlap(pass.records[q].keys, exact.per_query[q].keys);
  }
  recall /= static_cast<double>(prefix_points.size());
  twin = KnnService();

  const double prefix = static_cast<double>(size.prefix_queries);
  EndToEnd e2e;
  e2e.setup_s = median(setups);
  e2e.ops_per_s = static_cast<double>(pass.queries) / elapsed_s;
  e2e.query_p90_ms = pass.query.quantile_ms(0.90);
  e2e.rounds_per_query = static_cast<double>(pass.prefix_rounds) / prefix;
  e2e.messages_per_query = static_cast<double>(pass.prefix_messages) / prefix;
  e2e.recall = recall;
  e2e.peak_rss_mb = rss;
  result.fingerprint_value("rounds_per_query", e2e.rounds_per_query);
  result.fingerprint_value("messages_per_query", e2e.messages_per_query);
  result.fingerprint_value("recall", e2e.recall);
  result.fingerprint_value("ann_hops", static_cast<double>(facade_prefix.hops));
  if (!options.trace) {
    e2e.emit(result);
    return result;
  }

  layers.dim = kDim;
  layers.approx = true;
  layers.facade_query = pass.query;
  layers.queries = pass.queries;
  const auto build_delta = [&](const std::string& name, const std::string& field) {
    return static_cast<double>(registry_histogram(after_build, name, field) -
                               registry_histogram(before_build, name, field));
  };
  layers.build_s = build_delta("dknn_ann_graph_build_ns", "sum") * 1e-9;
  const double graphs = build_delta("dknn_ann_graph_build_iters", "count");
  layers.build_iters =
      graphs == 0.0 ? 0.0 : build_delta("dknn_ann_graph_build_iters", "sum") / graphs;
  layers.ann_queries = pass.queries;
  layers.hops = static_cast<double>(facade.hops);
  layers.frontier = static_cast<double>(facade.frontier);
  layers.rerank = static_cast<double>(facade.rerank);
  layers.emit(result);
  return result;
}

}  // namespace perfbench
