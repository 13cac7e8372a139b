// Tests for the observability layer (src/obs/): log-linear histogram
// bucket math (golden boundaries, relative-error bound, shard-merge
// equivalence), counter/gauge/histogram concurrency (the TSan leg hammers
// the sharded cells from many threads), registry snapshot/exposition
// invariants (monotone cumulative ladder, hits+misses==queries at the
// facade), tracer sampling/ring semantics — and the contract everything
// rests on: metrics and tracing change no answer byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/rng.hpp"

namespace dknn::obs {
namespace {

/// Restores the registry's enabled flag (tests toggle it).
class EnabledGuard {
 public:
  EnabledGuard() : was_(registry().enabled()) {}
  ~EnabledGuard() { registry().set_enabled(was_); }

 private:
  bool was_;
};

// --- bucket math -------------------------------------------------------------

TEST(ObsBuckets, SmallValuesMapExactly) {
  for (std::uint64_t v = 0; v < kSubBuckets; ++v) {
    EXPECT_EQ(bucket_index(v), v);
    EXPECT_EQ(bucket_lo(v), v);
    EXPECT_EQ(bucket_width(v), 1u);
  }
}

TEST(ObsBuckets, GoldenBoundaries) {
  // First octave bucket: 64 lands in bucket 64 with lo=64, width=1.
  EXPECT_EQ(bucket_index(64), kSubBuckets);
  EXPECT_EQ(bucket_lo(kSubBuckets), 64u);
  EXPECT_EQ(bucket_width(kSubBuckets), 1u);
  // Last bucket of the [64,128) octave.
  EXPECT_EQ(bucket_index(127), kSubBuckets + 63);
  // 128 starts the next octave: width doubles to 2.
  EXPECT_EQ(bucket_index(128), kSubBuckets + 64);
  EXPECT_EQ(bucket_lo(kSubBuckets + 64), 128u);
  EXPECT_EQ(bucket_width(kSubBuckets + 64), 2u);
  EXPECT_EQ(bucket_index(129), kSubBuckets + 64);  // same 2-wide bucket
  EXPECT_EQ(bucket_index(130), kSubBuckets + 65);
  // One full octave above: 256 → width 4.
  EXPECT_EQ(bucket_lo(bucket_index(256)), 256u);
  EXPECT_EQ(bucket_width(bucket_index(256)), 4u);
  // A big power of two lands on its own bucket boundary.
  EXPECT_EQ(bucket_lo(bucket_index(std::uint64_t{1} << 30)), std::uint64_t{1} << 30);
  // Values at/above the clamp octave collapse into the last bucket.
  EXPECT_EQ(bucket_index(std::uint64_t{1} << kMaxOctave), kHistogramBuckets - 1);
  EXPECT_EQ(bucket_index(~std::uint64_t{0}), kHistogramBuckets - 1);
  // Bucket lows are strictly increasing across the whole ladder.
  for (std::size_t i = 1; i < kHistogramBuckets; ++i) {
    EXPECT_LT(bucket_lo(i - 1), bucket_lo(i)) << "at bucket " << i;
  }
}

TEST(ObsBuckets, RoundTripAndRelativeErrorBound) {
  // Property: every value maps into a bucket that covers it, and the
  // bucket's representative is within 1/128 relative error.
  Rng rng(7);
  std::vector<std::uint64_t> values;
  for (std::uint32_t shift = 0; shift < kMaxOctave; ++shift) {
    values.push_back(std::uint64_t{1} << shift);
    values.push_back((std::uint64_t{1} << shift) + rng.below((std::uint64_t{1} << shift) | 1));
  }
  for (int i = 0; i < 2000; ++i) values.push_back(rng.below(std::uint64_t{1} << 40));
  for (const std::uint64_t v : values) {
    const std::size_t b = bucket_index(v);
    ASSERT_LT(b, kHistogramBuckets);
    EXPECT_LE(bucket_lo(b), v);
    EXPECT_LT(v, bucket_lo(b) + bucket_width(b));
    const auto rep = static_cast<double>(bucket_representative(b));
    const auto exact = static_cast<double>(v);
    if (v > 0) {
      EXPECT_LE(std::abs(rep - exact) / exact, 1.0 / 128.0) << "v=" << v;
    }
  }
}

// --- instruments -------------------------------------------------------------

TEST(ObsInstruments, CounterGaugeBasics) {
  const EnabledGuard guard;
  registry().set_enabled(true);
  Counter& c = registry().counter("test_obs_counter_total", "test");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = registry().gauge("test_obs_gauge", "test");
  g.reset();
  g.add(10);
  g.sub(3);
  EXPECT_EQ(g.value(), 7);
  g.sub(20);
  EXPECT_EQ(g.value(), -13);  // deltas may transiently dip below zero

  registry().set_enabled(false);
  c.add(100);
  g.add(100);
  EXPECT_EQ(c.value(), 42u);  // disabled = one branch, no mutation
  EXPECT_EQ(g.value(), -13);
}

TEST(ObsInstruments, HistogramMergeOfShardsEqualsSingleShard) {
  const EnabledGuard guard;
  registry().set_enabled(true);
  // The same sample set recorded single-threaded (one shard) and from many
  // threads (spread over shards) must merge to identical totals & buckets.
  Rng rng(11);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back(rng.below(std::uint64_t{1} << 34));

  Histogram& single = registry().histogram("test_obs_hist_single_ns", "test");
  single.reset();
  for (const std::uint64_t v : samples) single.record(v);

  Histogram& sharded = registry().histogram("test_obs_hist_sharded_ns", "test");
  sharded.reset();
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < samples.size(); i += kThreads) sharded.record(samples[i]);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(single.count(), samples.size());
  EXPECT_EQ(sharded.count(), single.count());
  EXPECT_EQ(sharded.sum(), single.sum());
  EXPECT_EQ(sharded.nonzero_buckets(), single.nonzero_buckets());
}

TEST(ObsInstruments, ConcurrentIncrementsAreExact) {
  // The TSan ctest leg runs this file: relaxed sharded cells must be
  // data-race-free and lose no increments.
  const EnabledGuard guard;
  registry().set_enabled(true);
  Counter& c = registry().counter("test_obs_concurrent_total", "test");
  Gauge& g = registry().gauge("test_obs_concurrent_gauge", "test");
  Histogram& h = registry().histogram("test_obs_concurrent_ns", "test");
  c.reset();
  g.reset();
  h.reset();
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add();
        g.add(1);
        g.sub(1);
        h.record(i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
}

TEST(ObsInstruments, QuantilesLandOnRepresentatives) {
  const EnabledGuard guard;
  registry().set_enabled(true);
  Histogram& h = registry().histogram("test_obs_quantile_ns", "test");
  h.reset();
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 1000);  // 1µs .. 1ms
  const MetricsSnapshot snap = registry().snapshot();
  const HistogramSnapshot* hs = snap.find_histogram("test_obs_quantile_ns");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1000u);
  // Ceil-nearest-rank + ≤1/128 bucket error around the exact answers.
  EXPECT_NEAR(static_cast<double>(hs->quantile(0.5)), 500e3, 500e3 / 64.0);
  EXPECT_NEAR(static_cast<double>(hs->quantile(0.95)), 950e3, 950e3 / 64.0);
  EXPECT_NEAR(static_cast<double>(hs->quantile(1.0)), 1000e3, 1000e3 / 64.0);
  EXPECT_EQ(hs->quantile(0.0), hs->quantile(1.0 / 1000.0));  // rank clamps to 1
}

// --- exposition --------------------------------------------------------------

TEST(ObsExposition, PrometheusLadderIsCumulativeAndMonotone) {
  const EnabledGuard guard;
  registry().set_enabled(true);
  Histogram& h = registry().histogram("test_obs_prom_ns", "ladder test");
  h.reset();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) h.record(rng.below(std::uint64_t{1} << 20));
  const std::string text = registry().prometheus_text();
  EXPECT_NE(text.find("# TYPE test_obs_prom_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_ns_bucket{le=\"+Inf\"} 500"), std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_ns_count 500"), std::string::npos);

  // The machine-checkable version of the same invariant (what
  // bench/check_metrics_schema.py asserts on real runs): cumulative
  // counts never decrease along the ladder and +Inf == count.
  const MetricsSnapshot snap = registry().snapshot();
  const HistogramSnapshot* hs = snap.find_histogram("test_obs_prom_ns");
  ASSERT_NE(hs, nullptr);
  std::uint64_t cumulative = 0;
  std::size_t last_index = 0;
  for (const auto& [index, count] : hs->buckets) {
    EXPECT_GE(index, last_index);
    EXPECT_GT(count, 0u);
    cumulative += count;
    last_index = index;
  }
  EXPECT_EQ(cumulative, hs->count);
}

TEST(ObsExposition, JsonMentionsEveryKind) {
  const EnabledGuard guard;
  registry().set_enabled(true);
  registry().counter("test_obs_json_total", "c").add();
  registry().gauge("test_obs_json_gauge", "g").add(5);
  registry().histogram("test_obs_json_ns", "h").record(1234);
  const std::string json = registry().json_text();
  EXPECT_NE(json.find("\"test_obs_json_total\""), std::string::npos);
  EXPECT_NE(json.find("\"test_obs_json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test_obs_json_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// --- tracer ------------------------------------------------------------------

TEST(ObsTracer, SamplingGateAndForce) {
  Tracer tracer(0, 8);
  EXPECT_EQ(tracer.begin(false), nullptr);  // off, unforced
  auto forced = tracer.begin(true);
  ASSERT_NE(forced, nullptr);
  tracer.finish(std::move(forced));
  EXPECT_EQ(tracer.recent().size(), 1u);

  Tracer sampled(2, 8);  // every 2nd
  int traced = 0;
  for (int i = 0; i < 10; ++i) {
    if (auto b = sampled.begin(false); b != nullptr) {
      ++traced;
      sampled.finish(std::move(b));
    }
  }
  EXPECT_EQ(traced, 5);
}

TEST(ObsTracer, RingKeepsNewestAndExportsBothFormats) {
  Tracer tracer(1, 4);
  for (int i = 0; i < 10; ++i) {
    auto b = tracer.begin(false);
    ASSERT_NE(b, nullptr);
    b->add_span("stage", now_ns(), 5, static_cast<std::uint64_t>(i));
    tracer.finish(std::move(b));
  }
  const std::vector<QueryTrace> recent = tracer.recent();
  ASSERT_EQ(recent.size(), 4u);  // capacity bound
  for (std::size_t i = 1; i < recent.size(); ++i) {
    EXPECT_LT(recent[i - 1].id, recent[i].id);  // oldest first
  }
  EXPECT_EQ(recent.back().id, 9u);  // newest retained
  const std::string json = Tracer::to_json(recent);
  EXPECT_NE(json.find("\"traces\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\""), std::string::npos);
  const std::string chrome = Tracer::to_chrome(recent);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
}

// --- the contract: observability changes no answer byte ----------------------

TEST(ObsParity, TracedAndUntracedAnswersAreByteIdentical) {
  const EnabledGuard guard;
  Rng rng(23);
  const auto dataset = uniform_points(2000, 6, 100.0, rng);
  const auto queries = uniform_points(64, 6, 100.0, rng);

  const auto run = [&](bool obs_on, std::uint64_t sample_every,
                       bool force) -> std::vector<std::vector<Key>> {
    registry().set_enabled(obs_on);
    KnnServiceBuilder builder;
    builder.machines(4).ell(8).seed(5).live().trace(sample_every, 64).dataset(dataset);
    KnnService service = builder.build();
    std::vector<std::vector<Key>> out;
    QueryOptions options;
    options.trace = force;
    for (const PointD& q : queries) out.push_back(service.query(q, options).keys);
    const BatchQueryResult batch = service.query_batch(queries, options);
    for (const QueryResult& r : batch.per_query) out.push_back(r.keys);
    if (force) {
      EXPECT_FALSE(service.recent_traces().empty());
    }
    return out;
  };

  const auto baseline = run(false, 0, false);    // observability fully off
  const auto metrics_on = run(true, 0, false);   // metrics, no tracing
  const auto traced = run(true, 1, true);        // metrics + every query traced
  EXPECT_EQ(baseline, metrics_on);
  EXPECT_EQ(baseline, traced);
}

/// The facade counter invariant the schema checker enforces on benches:
/// after a quiescent query-only workload, hits + misses == queries.
TEST(ObsParity, FacadeCountersReconcile) {
  const EnabledGuard guard;
  registry().set_enabled(true);
  const MetricsSnapshot before = registry().snapshot();
  const auto value_of = [](const MetricsSnapshot& snap, std::string_view name) {
    const CounterSnapshot* c = snap.find_counter(name);
    return c != nullptr ? c->value : 0;
  };

  Rng rng(29);
  KnnServiceBuilder builder;
  builder.machines(2).ell(4).seed(9).cache_capacity(256).dataset(
      uniform_points(500, 4, 50.0, rng));
  KnnService service = builder.build();
  const auto queries = uniform_points(32, 4, 50.0, rng);
  for (int round = 0; round < 3; ++round) {  // later rounds hit the cache
    for (const PointD& q : queries) (void)service.query(q);
  }

  const MetricsSnapshot after = registry().snapshot();
  const std::uint64_t queries_delta =
      value_of(after, "dknn_service_queries_total") - value_of(before, "dknn_service_queries_total");
  const std::uint64_t hits_delta = value_of(after, "dknn_service_cache_hits_total") -
                                   value_of(before, "dknn_service_cache_hits_total");
  const std::uint64_t misses_delta = value_of(after, "dknn_service_cache_misses_total") -
                                     value_of(before, "dknn_service_cache_misses_total");
  EXPECT_EQ(queries_delta, 96u);
  EXPECT_EQ(hits_delta + misses_delta, queries_delta);
  EXPECT_GT(hits_delta, 0u);  // rounds 2-3 hit
}

}  // namespace
}  // namespace dknn::obs
