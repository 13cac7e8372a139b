// bench_serve — live-serving throughput and latency percentiles.
//
// The serving analogue of bench_micro_kernels' BENCH_kernels.json: the
// KnnService facade in live mode under churn (inserts + erases interleaved
// with traffic, periodic compaction) answering queries.  With --json=PATH
// it times the canonical workload (100k resident points, d=8, ℓ=64, skewed
// 64-point query pool) and writes BENCH_serve.json: queries/sec,
// p50/p95/p99 latency, cache hit rate, and compaction debt.
//
// Stanzas (every one a live service, result cache on, serial scoring):
//   facade             one closed-loop submitter against one machine:
//                      snapshot scoring plus the full selection protocol
//                      per cache miss, one insert + erase every
//                      --churn-every queries and a compaction every 16th
//                      churn step.
//   facade_concurrent  four closed-loop submitters through service.query()
//                      — the coalescing seat — while the main thread churns
//                      inserts/erases and compaction against them, one
//                      churn step per --churn-every completed queries, so
//                      the churn spans the whole run.  The lock-free
//                      snapshot read path means the mutators never block
//                      the submitters; a reintroduced service-wide query
//                      lock would show up here as a cliff.  JSON null below
//                      4 hardware threads: measuring scheduler thrash on a
//                      small box would pollute the perf trajectory.
//   degraded           the facade row's workload and churn sharded over four
//                      machines with one dead: every answer is exact over
//                      the survivors at coverage 3/4, and an erase of a dead
//                      machine's point is pended.  Beside it, the same four
//                      machines all healthy (healthy_p50_ms), so the gap to
//                      the facade row splits into the four-machine protocol
//                      and the cost of the dead machine.
//   obs_overhead       the facade row with the metrics registry off vs on.
//   compaction         the facade row's compaction installs and its debt
//                      before and after the run.
//
//   ./bench_serve [--json=BENCH_serve.json] [--n=100000] [--dim=8] [--ell=64]
//                 [--queries=2000] [--churn-every=4] [--seed=3]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/latency.hpp"
#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/simd/dispatch.hpp"
#include "obs/metrics.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

namespace {

using namespace dknn;

struct LatencyStats {
  double queries_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

// All percentiles come from the shared ceil nearest-rank estimator in
// bench/latency.hpp (unit-tested in tests/test_latency.cpp).  The floored
// `sorted[size_t(p * (n-1))]` this replaces under-reported the tail
// whenever a stanza measured fewer than 1/(1−p) samples.
LatencyStats latency_stats(std::vector<double> latencies_ms, double total_sec) {
  LatencyStats stats;
  if (latencies_ms.empty()) return stats;  // --queries too small for this stanza
  const bench::LatencySummary summary = bench::summarize_latencies(latencies_ms);
  stats.queries_per_sec = static_cast<double>(summary.count) / total_sec;
  stats.p50_ms = summary.p50_ms;
  stats.p95_ms = summary.p95_ms;
  stats.p99_ms = summary.p99_ms;
  return stats;
}

struct Workload {
  std::size_t n = 100000;
  std::size_t dim = 8;
  std::size_t ell = 64;
  std::size_t queries = 2000;
  std::size_t churn_every = 4;  ///< one insert+erase pair per this many queries
  std::uint64_t seed = 3;
};

/// The live service every stanza serves from.  seal_threshold 32 so churn
/// seals segments mid-run even at the checked-in 400 queries (100 inserts,
/// three seals), and min_segment_points 1024 so compaction has real merges
/// to do — the rows report maintenance under load, not a frozen store.
/// Serial scoring (threads = 1) keeps the rows comparable on any core
/// count.  Draws the dataset from `rng`.
KnnServiceBuilder serve_builder(const Workload& w, std::uint32_t machines, Rng& rng) {
  KnnServiceBuilder builder;
  builder.machines(machines)
      .ell(w.ell)
      .live(ServeConfig{.seal_threshold = 32, .policy = ScoringPolicy::Auto})
      .compaction(CompactionConfig{.max_dead_fraction = 0.2, .min_segment_points = 1024})
      .cache_capacity(4096)
      .scoring(BatchScoringConfig{.threads = 1})
      .seed(w.seed)
      .dataset(uniform_points(w.n, w.dim, 100.0, rng));
  return builder;
}

/// One unit of churn: a fresh point arrives, a random live one expires.
/// The builder assigned the resident ids; live_ids() recovers them so churn
/// expires resident points, and contains() guards fresh mints.
class Churn {
 public:
  explicit Churn(const KnnService& service) : live_(service.live_ids()) {}

  void step(KnnService& service, std::size_t dim, Rng& rng) {
    while (service.contains(next_id_)) ++next_id_;
    service.insert(uniform_points(1, dim, 100.0, rng)[0], next_id_);
    live_.push_back(next_id_++);
    const std::size_t victim = rng.below(live_.size());
    (void)service.erase(live_[victim]);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(victim));
  }

 private:
  std::vector<PointId> live_;
  PointId next_id_ = 1;
};

/// What a single-submitter run reports besides its latencies.
struct FacadeRun {
  LatencyStats latency;
  double hit_rate = 0.0;
  double coverage = 1.0;  ///< the last answer's
  std::uint64_t debt_before = 0;
  std::uint64_t debt_after = 0;
  std::uint64_t installs = 0;  ///< compaction installs during the run
};

/// One closed-loop submitter, every query timed, churn interleaved.  The
/// facade row serves one machine; more than one shards the same workload
/// over fault-tolerant machines, and `kill_last` kills the last of them
/// before traffic starts.
FacadeRun run_facade(const Workload& w, std::uint32_t machines = 1, bool kill_last = false) {
  Rng rng(w.seed);
  KnnServiceBuilder builder = serve_builder(w, machines, rng);
  if (machines > 1) builder.fault_tolerant();
  KnnService service = builder.build();
  if (kill_last) service.kill_machine(machines - 1);
  Churn churn(service);
  const auto query_pool = uniform_points(64, w.dim, 100.0, rng);
  obs::Counter& installs = obs::registry().counter("dknn_store_compaction_installs_total");

  FacadeRun run;
  run.debt_before = service.compaction_debt();
  const std::uint64_t installs_before = installs.value();
  Rng traffic(w.seed + 1);
  std::vector<double> latencies_ms;
  latencies_ms.reserve(w.queries);
  const WallTimer total;
  for (std::size_t q = 0; q < w.queries; ++q) {
    if (w.churn_every != 0 && q % w.churn_every == 0) {
      churn.step(service, w.dim, rng);
      if (q % (w.churn_every * 16) == 0) (void)service.compact_now();
    }
    const PointD& query = query_pool[traffic.below(query_pool.size())];
    const WallTimer timer;
    const auto result = service.query(query);
    latencies_ms.push_back(ns_to_ms(timer.elapsed_ns()));
    run.coverage = result.coverage.fraction();
    if (result.keys.empty()) std::fprintf(stderr, "empty facade answer?!\n");
  }
  const double total_sec = total.elapsed_sec();
  const auto stats = service.stats();
  run.hit_rate = stats.queries == 0 ? 0.0
                                    : static_cast<double>(stats.cache_hits) /
                                          static_cast<double>(stats.queries);
  run.debt_after = service.compaction_debt();
  run.installs = installs.value() - installs_before;
  run.latency = latency_stats(std::move(latencies_ms), total_sec);
  return run;
}

/// The facade under real read concurrency: four closed-loop submitters
/// through service.query() (the coalescing seat) while the main thread
/// churns inserts/erases and compaction against them, paced by completed
/// queries like the facade row's churn.  Queries take no service-wide
/// lock — they score against published snapshots — so the mutator thread
/// never stalls the submitters; compare against the single-submitter
/// `facade` row for the concurrency payoff.
std::optional<LatencyStats> run_facade_concurrent(const Workload& w,
                                                  std::size_t hardware_threads,
                                                  double* hit_rate, std::uint64_t* batches) {
  if (hardware_threads < 4) return std::nullopt;
  constexpr std::size_t kSubmitters = 4;
  Rng rng(w.seed);
  KnnService service =
      serve_builder(w, 1, rng).coalesce(32, std::chrono::microseconds{200}).build();
  Churn churn(service);
  const auto query_pool = uniform_points(64, w.dim, 100.0, rng);

  const std::size_t per_thread = w.queries / kSubmitters;
  std::vector<std::vector<double>> latencies(kSubmitters);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> completed{0};
  const WallTimer total;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&service, &query_pool, &latencies, &completed, w, t, per_thread] {
      Rng traffic(w.seed + 200 + t);
      latencies[t].reserve(per_thread);
      for (std::size_t q = 0; q < per_thread; ++q) {
        const PointD& query = query_pool[traffic.below(query_pool.size())];
        const WallTimer timer;
        const auto result = service.query(query);
        latencies[t].push_back(ns_to_ms(timer.elapsed_ns()));
        completed.fetch_add(1, std::memory_order_relaxed);
        if (result.keys.empty()) std::fprintf(stderr, "empty facade answer?!\n");
      }
    });
  }
  // Churn rides the main thread while submitters run: step c waits for
  // c · churn_every completed queries, so inserts, erases and periodic
  // compaction race the lock-free readers from the first query to the
  // last instead of finishing before most of them.  Every wait ends: the
  // last step waits for fewer queries than the submitters complete.
  const std::size_t churn_ops =
      w.churn_every == 0 ? 0 : per_thread * kSubmitters / w.churn_every;
  for (std::size_t c = 0; c < churn_ops; ++c) {
    while (completed.load(std::memory_order_relaxed) < c * w.churn_every) {
      std::this_thread::sleep_for(std::chrono::microseconds{20});
    }
    churn.step(service, w.dim, rng);
    if (c % 16 == 0) (void)service.maybe_compact();
  }
  for (auto& thread : threads) thread.join();
  const double total_sec = total.elapsed_sec();
  const auto stats = service.stats();
  *hit_rate = stats.queries == 0 ? 0.0
                                 : static_cast<double>(stats.cache_hits) /
                                       static_cast<double>(stats.queries);
  *batches = stats.batches;
  std::vector<double> merged;
  for (auto& part : latencies) merged.insert(merged.end(), part.begin(), part.end());
  return latency_stats(std::move(merged), total_sec);
}

void write_latency(std::FILE* f, const char* name, const std::optional<LatencyStats>& stats,
                   const char* extra, bool trailing_comma) {
  if (stats.has_value()) {
    std::fprintf(f,
                 "  \"%s\": {\"queries_per_sec\": %.1f, \"p50_ms\": %.4f, "
                 "\"p95_ms\": %.4f, \"p99_ms\": %.4f%s}%s\n",
                 name, stats->queries_per_sec, stats->p50_ms, stats->p95_ms, stats->p99_ms,
                 extra, trailing_comma ? "," : "");
  } else {
    std::fprintf(f, "  \"%s\": null%s\n", name, trailing_comma ? "," : "");
  }
}

int emit_json(const std::string& path, const Workload& w) {
  const std::size_t hardware_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  const FacadeRun facade = run_facade(w);

  // Facade-concurrent stanza — submitters through the coalescing seat vs
  // a churning mutator thread; null below 4 hardware threads.
  double facade_concurrent_hit_rate = 0.0;
  std::uint64_t facade_concurrent_batches = 0;
  const std::optional<LatencyStats> facade_concurrent = run_facade_concurrent(
      w, hardware_threads, &facade_concurrent_hit_rate, &facade_concurrent_batches);
  if (!facade_concurrent.has_value()) {
    std::printf("facade_concurrent stanza skipped: %zu hardware thread(s) < 4\n",
                hardware_threads);
  }

  constexpr std::uint32_t kDegradedMachines = 4;
  const FacadeRun degraded = run_facade(w, kDegradedMachines, /*kill_last=*/true);
  const FacadeRun healthy = run_facade(w, kDegradedMachines);

  // Obs-overhead stanza: the facade row with the metrics registry disabled
  // (every instrument = one relaxed load + branch) vs enabled with trace
  // sampling off (the production configuration).  The acceptance budget is
  // <= 3% throughput cost; every arm builds a fresh service so no
  // cache/compaction state leaks between them.
  double obs_off_qps = 0.0;
  double obs_on_qps = 0.0;
  {
    // A/B arms need enough queries that each arm times tens-of-ms-plus;
    // the instruments under test cost nanoseconds, so a short arm measures
    // scheduler jitter, not overhead.
    Workload ow = w;
    ow.queries = std::max<std::size_t>(ow.queries, 2000);
    // Discarded warm-up arm: page cache, allocator arenas and branch
    // predictors settle here, so neither measured arm gets the cold start.
    obs::registry().set_enabled(false);
    (void)run_facade(ow);
    // Alternating best-of-3 per arm: run-to-run scheduler noise on shared
    // boxes dwarfs the ~3% budget this stanza polices, and the max of three
    // interleaved reps is the least-perturbed sample of each arm.
    for (int rep = 0; rep < 3; ++rep) {
      obs::registry().set_enabled(false);
      obs_off_qps = std::max(obs_off_qps, run_facade(ow).latency.queries_per_sec);
      obs::registry().set_enabled(true);
      obs_on_qps = std::max(obs_on_qps, run_facade(ow).latency.queries_per_sec);
    }
  }
  const double obs_overhead =
      obs_off_qps > 0.0 ? 1.0 - obs_on_qps / obs_off_qps : 0.0;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(f,
               "  \"workload\": {\"points\": %zu, \"dim\": %zu, \"ell\": %zu, "
               "\"queries\": %zu, \"churn_every\": %zu, \"query_pool\": 64, "
               "\"metric\": \"squared-euclidean\", \"threads\": %zu, \"simd_isa\": \"%s\"},\n",
               w.n, w.dim, w.ell, w.queries, w.churn_every, hardware_threads,
               simd::isa_name(simd::active_isa()));
  {
    char extra[160];
    std::snprintf(extra, sizeof extra,
                  ", \"cache_hit_rate\": %.3f, \"machines\": 1, \"debt_after\": %" PRIu64,
                  facade.hit_rate, facade.debt_after);
    write_latency(f, "facade", facade.latency, extra, true);
  }
  {
    char extra[160];
    std::snprintf(extra, sizeof extra,
                  ", \"cache_hit_rate\": %.3f, \"seat_batches\": %" PRIu64
                  ", \"submitters\": 4, \"machines\": 1",
                  facade_concurrent_hit_rate, facade_concurrent_batches);
    write_latency(f, "facade_concurrent", facade_concurrent, extra, true);
  }
  {
    char extra[240];
    std::snprintf(extra, sizeof extra,
                  ", \"cache_hit_rate\": %.3f, \"machines\": %u, \"dead\": 1, \"coverage\": %.3f"
                  ", \"healthy_p50_ms\": %.4f, \"healthy_queries_per_sec\": %.1f",
                  degraded.hit_rate, kDegradedMachines, degraded.coverage,
                  healthy.latency.p50_ms, healthy.latency.queries_per_sec);
    write_latency(f, "degraded", degraded.latency, extra, true);
  }
  std::fprintf(f,
               "  \"obs_overhead\": {\"metrics_on_qps\": %.1f, \"metrics_off_qps\": %.1f, "
               "\"overhead_fraction\": %.4f, \"trace_sampling\": 0, \"budget_fraction\": "
               "0.03},\n",
               obs_on_qps, obs_off_qps, obs_overhead);
  std::fprintf(f,
               "  \"compaction\": {\"installed\": %" PRIu64 ", \"debt_before\": %" PRIu64
               ", \"debt_after\": %" PRIu64 "}\n}\n",
               facade.installs, facade.debt_before, facade.debt_after);
  std::fclose(f);

  std::printf("wrote %s (facade %.0f q/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
              "cache hit %.1f%%; ",
              path.c_str(), facade.latency.queries_per_sec, facade.latency.p50_ms,
              facade.latency.p95_ms, facade.latency.p99_ms, 100.0 * facade.hit_rate);
  if (facade_concurrent.has_value()) {
    std::printf("facade_concurrent %.0f q/s p99 %.3f ms; ",
                facade_concurrent->queries_per_sec, facade_concurrent->p99_ms);
  } else {
    std::printf("facade_concurrent skipped @%zu threads; ", hardware_threads);
  }
  std::printf("degraded %.0f q/s at coverage %.2f, p50 %.3f ms (healthy %u machines %.3f ms), "
              "cache hit %.1f%%; ",
              degraded.latency.queries_per_sec, degraded.coverage, degraded.latency.p50_ms,
              kDegradedMachines, healthy.latency.p50_ms, 100.0 * degraded.hit_rate);
  std::printf("obs overhead %.1f%% (on %.0f vs off %.0f q/s); ", 100.0 * obs_overhead,
              obs_on_qps, obs_off_qps);
  std::printf("compaction %" PRIu64 " installed, debt %" PRIu64 " -> %" PRIu64 ")\n",
              facade.installs, facade.debt_before, facade.debt_after);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("json", "write BENCH_serve.json to this path (empty = print only)", "");
  cli.add_flag("n", "resident points", "100000");
  cli.add_flag("dim", "point dimensionality", "8");
  cli.add_flag("ell", "neighbors per query", "64");
  cli.add_flag("queries", "measured queries per stanza", "2000");
  cli.add_flag("churn-every", "one insert+delete per this many queries (0 = frozen)", "4");
  cli.add_flag("seed", "experiment seed", "3");
  if (!cli.parse(argc, argv)) return 0;

  Workload w;
  w.n = cli.get_uint("n");
  w.dim = cli.get_uint("dim");
  w.ell = cli.get_uint("ell");
  w.queries = cli.get_uint("queries");
  w.churn_every = cli.get_uint("churn-every");
  w.seed = cli.get_uint("seed");

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) return emit_json(json_path, w);

  // No JSON target: run the facade stanza and print it.
  const FacadeRun facade = run_facade(w);
  std::printf("facade: %.0f queries/sec, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
              facade.latency.queries_per_sec, facade.latency.p50_ms, facade.latency.p95_ms,
              facade.latency.p99_ms);
  std::printf("cache hit rate %.3f; compaction %" PRIu64 " installed, debt %" PRIu64
              " -> %" PRIu64 "\n",
              facade.hit_rate, facade.installs, facade.debt_before, facade.debt_after);
  return 0;
}
