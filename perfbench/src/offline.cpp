// offline_classify_d64 — the paper's motivating task: ℓ-NN classification
// of a test set.  A static KnnService (k = 8, ℓ = 32) holds n = 64,000
// points of a 16-component Gaussian mixture in d = 64 (centres in ±10,
// spread 12, so the classes overlap) and classifies fresh draws from the
// same mixture with classify_batch in blocks of 64.

#include <map>
#include <optional>
#include <unordered_map>

#include "common.hpp"
#include "core/knn_service.hpp"
#include "data/generators.hpp"

namespace perfbench {
namespace {

using namespace dknn;

constexpr std::uint32_t kMachines = 8;
constexpr std::size_t kDim = 64;
constexpr std::uint64_t kEll = 32;
constexpr std::uint32_t kClusters = 16;
constexpr double kCentreBox = 10.0;
constexpr double kSpread = 12.0;
constexpr std::size_t kBlock = 64;
constexpr std::uint64_t kCheckPeriod = 64;  ///< one query in this many meets the oracle

struct Size {
  std::size_t points;
  /// The fixed prefix the counts and fingerprint cover; at least 100
  /// blocks, so the block-latency p90 always has ten samples beyond it.
  std::uint64_t prefix_blocks;
  int setups;
};

Size size_of(const Options& options) {
  return options.small ? Size{4000, 4, 2} : Size{64000, 100, 9};
}

KnnService build_service(std::vector<PointD> points, std::vector<std::uint32_t> labels,
                         std::uint64_t seed) {
  return KnnServiceBuilder()
      .machines(kMachines)
      .ell(kEll)
      .seed(seed)
      .policy(ScoringPolicy::Auto)
      .scoring(BatchScoringConfig{.threads = 1})
      .engine(EngineConfig{})
      .dataset(std::move(points))
      .labels(std::move(labels))
      .build();
}

struct Block {
  std::vector<PointD> queries;
  std::vector<std::uint32_t> truth;
};

Block draw_block(const GaussianMixture& mixture, Rng& rng) {
  Block block;
  for (LabeledPoint& sample : mixture.sample(kBlock, rng)) {
    block.queries.push_back(std::move(sample.x));
    block.truth.push_back(sample.label);
  }
  return block;
}

struct QueryRecord {
  std::uint64_t query = 0;  ///< index in the query stream
  PointD point;
  ClassifyResult answer;
};

/// One closed-loop drive of the facade, advanced one block at a time by
/// step().
struct FacadePass {
  std::uint64_t blocks = 0;
  std::vector<std::uint64_t> block_ns;  ///< in stream order
  std::vector<QueryRecord> records;
  // Counts over the fixed prefix.
  std::uint64_t prefix_rounds = 0;
  std::uint64_t prefix_messages = 0;
  std::uint64_t prefix_correct_labels = 0;
};

/// Classifies the stream's next block through the facade.  Keeps every
/// answer when `keep_all`, else only the oracle's seeded sample.
void step(KnnService& service, const GaussianMixture& mixture, Rng& stream,
          std::uint64_t prefix_blocks, bool keep_all, std::uint64_t seed, FacadePass& pass,
          RunResult& result) {
  const std::uint64_t first = pass.blocks++ * kBlock;
  Block block = draw_block(mixture, stream);
  try {
    std::vector<ClassifyResult> answers;
    pass.block_ns.push_back(time_ns([&] { answers = service.classify_batch(block.queries); }));
    if (first < prefix_blocks * kBlock) {
      pass.prefix_rounds += answers.at(0).run.report.rounds;
      pass.prefix_messages += answers.at(0).run.report.traffic.messages_sent();
      for (std::size_t i = 0; i < kBlock; ++i) {
        pass.prefix_correct_labels += answers.at(i).label == block.truth[i] ? 1 : 0;
      }
    }
    for (std::size_t i = 0; i < kBlock; ++i) {
      if (keep_all || sampled(seed, first + i, kCheckPeriod)) {
        pass.records.push_back(
            {first + i, std::move(block.queries[i]), std::move(answers.at(i))});
      }
    }
  } catch (const std::exception& error) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      result.fail(std::string("classify_batch threw: ") + error.what());
    }
  }
}

/// The traced run's stage side: make_shard_indexes over the builder's
/// shards, then score_vector_shards_batch and classify_scored_batch per
/// block.
class StageReplica {
 public:
  StageReplica(const std::vector<VectorShard>& shards,
               std::vector<std::unordered_map<PointId, std::uint32_t>> labels)
      : indexes_(make_shard_indexes(shards, ScoringPolicy::Auto, KdRangeIndex::kDefaultLeafSize,
                                    ann::AnnConfig{})),
        labels_(std::move(labels)) {}

  /// Replays the block the facade just classified, timing each stage and
  /// asserting the replica's answers equal the facade's.
  void catch_up(const FacadePass& pass, Layers& layers, RunResult& result) {
    if (replayed_ == pass.records.size()) return;  // the block threw: nothing to replay
    const std::size_t first = replayed_;
    replayed_ = pass.records.size();
    std::vector<PointD> queries;
    for (std::size_t i = first; i < pass.records.size(); ++i) {
      queries.push_back(pass.records[i].point);
    }
    const TreeStats before = tree_stats(indexes_);
    std::vector<std::vector<std::vector<Key>>> scored;
    const std::uint64_t score_ns = time_ns([&] {
      scored = score_vector_shards_batch(indexes_, queries, kEll, MetricKind::SquaredEuclidean,
                                         BatchScoringConfig{.threads = 1});
    });
    const TreeStats after = tree_stats(indexes_);
    std::vector<ClassifyResult> answers;
    const std::uint64_t select_ns = time_ns([&] {
      answers = classify_scored_batch(scored, labels_, kEll, EngineConfig{}, KnnConfig{});
    });
    for (std::size_t i = 0; i < kBlock; ++i) {
      const QueryRecord& facade = pass.records[first + i];
      if (answers[i].run.keys != facade.answer.run.keys ||
          answers[i].label != facade.answer.label) {
        result.fail("replica answer differs from the facade's at query " +
                    std::to_string(facade.query));
      }
      layers.attempts += answers[i].run.attempts;
      layers.candidates += static_cast<double>(answers[i].run.candidates);
    }
    layers.scored += kBlock;
    layers.facade_us += static_cast<double>(pass.block_ns.back()) * 1e-3;
    layers.score_us += static_cast<double>(score_ns) * 1e-3;
    layers.select_us += static_cast<double>(select_ns) * 1e-3;
    layers.compute_us += static_cast<double>(answers[0].run.report.total_comp_ns) * 1e-3;
    layers.bits += static_cast<double>(answers[0].run.report.traffic.bits_sent());
    layers.shard_scorings += kBlock * kMachines;
    layers.tree_queries += after.queries - before.queries;
    layers.tree_points += after.points_scored - before.points_scored;
    layers.rows += static_cast<double>(after.points_scored - before.points_scored);
    for (const ShardIndex& index : indexes_) {
      if (index.has_tree()) {
        layers.tree_rows += index.store().size() * kBlock;
      } else {
        layers.rows += static_cast<double>(index.store().size() * kBlock);
      }
    }
  }

 private:
  std::vector<ShardIndex> indexes_;
  std::vector<std::unordered_map<PointId, std::uint32_t>> labels_;
  std::size_t replayed_ = 0;
};

/// The majority label of the given winners, ties to the smallest label.
std::uint32_t majority(const std::vector<Key>& winners,
                       const std::unordered_map<PointId, std::uint32_t>& label_of) {
  std::map<std::uint32_t, std::size_t> tally;
  for (const Key& key : winners) ++tally[label_of.at(key.id)];
  std::uint32_t best = 0;
  std::size_t best_count = 0;
  for (const auto& [label, count] : tally) {
    if (count > best_count) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

RunResult run_offline(const Options& options) {
  const Size size = size_of(options);
  const std::uint64_t seed = options.seed;
  const Rng root(seed);
  Rng centre_rng = root.split(1);
  Rng train_rng = root.split(2);
  Rng warm_rng = root.split(9);
  const GaussianMixture mixture(ClusterSpec{kDim, kClusters, kCentreBox, kSpread}, centre_rng);
  std::vector<PointD> points;
  std::vector<std::uint32_t> labels;
  for (LabeledPoint& sample : mixture.sample(size.points, train_rng)) {
    points.push_back(std::move(sample.x));
    labels.push_back(sample.label);
  }
  // The builder's own sharding, reproduced: same seed, same shards and ids.
  Rng shard_rng(seed);
  ShardPlacement placement;
  const std::vector<VectorShard> shards =
      make_vector_shards(points, kMachines, PartitionScheme::RoundRobin, shard_rng, placement);
  std::vector<PointId> ids(points.size());
  std::unordered_map<PointId, std::uint32_t> label_of;
  std::vector<std::unordered_map<PointId, std::uint32_t>> machine_labels(kMachines);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [machine, row] = placement[i];
    ids[i] = shards[machine].ids[row];
    label_of.emplace(ids[i], labels[i]);
    machine_labels[machine].emplace(ids[i], labels[i]);
  }

  RunResult result;
  std::vector<double> setups;
  KnnService service;
  for (int r = 0; r < size.setups; ++r) {
    service = KnnService();
    std::vector<PointD> point_copy = points;
    std::vector<std::uint32_t> label_copy = labels;
    const PointD warm = mixture.sample(1, warm_rng).front().x;
    const Clock::time_point start = Clock::now();
    service = build_service(std::move(point_copy), std::move(label_copy), seed);
    (void)service.classify(warm);
    setups.push_back(seconds_since(start));
  }
  (void)service.classify_batch(draw_block(mixture, warm_rng).queries);

  Rng stream = root.split(3);
  FacadePass pass;
  Layers layers;
  std::optional<StageReplica> replica;
  if (options.trace) replica.emplace(shards, machine_labels);
  // Traced runs alternate facade and stages block by block, so both sides
  // run in the same host state.
  const Clock::time_point start = Clock::now();
  while (pass.blocks < size.prefix_blocks || seconds_since(start) < options.seconds) {
    step(service, mixture, stream, size.prefix_blocks, options.trace, seed, pass, result);
    if (replica.has_value()) replica->catch_up(pass, layers, result);
  }
  const double elapsed_s = seconds_since(start);
  result.attempted = pass.blocks * kBlock;
  const double rss = peak_rss_mb();
  Samples per_query;  // a block's latency ÷ 64, one sample per block
  for (const std::uint64_t ns : pass.block_ns) per_query.add(ns / kBlock);

  // Answer checks: keys, votes and label against the brute-force oracle.
  double recall = 0.0;
  std::size_t checked = 0;
  for (const QueryRecord& record : pass.records) {
    if (!sampled(seed, record.query, kCheckPeriod)) continue;
    const std::vector<Key> expected = oracle_top_ell(points, ids, record.point, kEll);
    recall += overlap(record.answer.run.keys, expected);
    ++checked;
    bool votes_match = record.answer.votes.size() == expected.size();
    for (const auto& [key, label] : record.answer.votes) {
      votes_match = votes_match && label_of.count(key.id) != 0 && label_of.at(key.id) == label;
    }
    if (record.answer.run.keys != expected || !votes_match ||
        record.answer.label != majority(expected, label_of)) {
      result.fail("query " + std::to_string(record.query) + " differs from the oracle");
    }
  }
  recall = checked == 0 ? 0.0 : recall / static_cast<double>(checked);

  const double prefix_queries = static_cast<double>(size.prefix_blocks * kBlock);
  EndToEnd e2e;
  e2e.setup_s = median(setups);
  e2e.ops_per_s = static_cast<double>(pass.blocks * kBlock) / elapsed_s;
  e2e.query_p90_ms = per_query.quantile_ms(0.90);
  e2e.rounds_per_query = static_cast<double>(pass.prefix_rounds) / prefix_queries;
  e2e.messages_per_query = static_cast<double>(pass.prefix_messages) / prefix_queries;
  e2e.recall = recall;
  e2e.peak_rss_mb = rss;
  result.fingerprint_value("rounds_per_query", e2e.rounds_per_query);
  result.fingerprint_value("messages_per_query", e2e.messages_per_query);
  result.fingerprint_value("recall", e2e.recall);
  result.fingerprint_value("accuracy",
                           static_cast<double>(pass.prefix_correct_labels) / prefix_queries);
  if (!options.trace) {
    e2e.emit(result);
    return result;
  }

  layers.dim = kDim;
  layers.facade_query = per_query;
  layers.queries = pass.blocks * kBlock;
  layers.emit(result);
  return result;
}

}  // namespace perfbench
