#include "core/knn_service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/compactor.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

/// One payload kind's id → value table per machine (labels: std::uint32_t,
/// targets: double), shared by both modes: a live store's membership
/// churns, so positional arrays cannot label it.  Copy-on-write: a
/// published Snapshot shares these maps, so mutators never edit one in
/// place — they clone, edit the clone, and swap the pointer.
template <typename Value>
struct PayloadTables {
  using Table = std::unordered_map<PointId, Value>;
  bool present = false;  ///< given at build or by an insert
  std::vector<std::shared_ptr<const Table>> tables;

  [[nodiscard]] std::optional<Value> find(std::size_t machine, PointId id) const {
    const auto it = tables[machine]->find(id);
    if (it == tables[machine]->end()) return std::nullopt;
    return it->second;
  }

  /// Writes the value each record carries in `field` (if any) to the
  /// table of machine homes[i], cloning each touched table once.
  void write(std::span<const ReplicaRecord> records, std::span<const std::size_t> homes,
             std::optional<Value> ReplicaRecord::*field) {
    std::vector<std::shared_ptr<Table>> fresh;  // sized at the first value
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::optional<Value>& value = records[i].*field;
      if (!value.has_value()) continue;
      fresh.resize(tables.size());
      std::shared_ptr<Table>& table = fresh[homes[i]];
      if (table == nullptr) table = std::make_shared<Table>(*tables[homes[i]]);
      (*table)[records[i].id] = *value;
      present = true;
    }
    for (std::size_t m = 0; m < fresh.size(); ++m) {
      if (fresh[m] != nullptr) tables[m] = std::move(fresh[m]);
    }
  }

  void clear(std::size_t machine) { tables[machine] = std::make_shared<const Table>(); }

  /// Drops `id` from one machine's table (no-op when absent).
  void erase(std::size_t machine, PointId id) {
    if (tables[machine]->count(id) == 0) return;
    auto next = std::make_shared<Table>(*tables[machine]);
    next->erase(id);
    tables[machine] = std::move(next);
  }
};

}  // namespace

// --- the published read-path view --------------------------------------------

/// Everything a query needs, frozen at one publish: the per-machine store
/// snapshots, the payload tables (COW — mutators install fresh maps, so a
/// published table never changes under a reader), and the liveness state
/// (generation + coverage + which stores were reachable) the view was taken
/// at.  Readers hold one of these by shared_ptr for the whole call; nothing
/// in it is ever mutated after publish.
struct KnnService::Snapshot {
  /// Service epoch (sum of per-store epochs) at publish; 0 in static mode.
  std::uint64_t epoch = 0;
  /// Health generation at publish (0 without fault tolerance).  Readers
  /// compare against the live generation: equal means the cached-answer key
  /// (epoch + generation) is still current.
  std::uint64_t generation = 0;
  /// Detected coverage at publish — what cache hits are stamped with.
  Coverage coverage;
  /// One coherent snapshot per machine.  A slot is null iff its machine
  /// was Dead at publish (its store is unreachable — the guarded scoring
  /// step reports it missing), and empty iff it was Retired (its points
  /// live on survivors — skipped silently).
  std::vector<SnapshotPtr> stores;
  /// The payload tables for classify/regress, aligned with the stores.
  PayloadTables<std::uint32_t> labels;
  PayloadTables<double> targets;
};

/// One waiting query() call in the leader/follower coalescing seat.  Owned
/// by the caller's stack; `done`/`result`/`error` are written by the leader
/// and read by the owner, both under seat_mutex.
struct KnnService::SeatSlot {
  const PointD* query = nullptr;
  KnnAlgo algo{};
  std::uint64_t ell = 0;
  MetricKind metric{};
  bool approx = false;
  QueryResult result;
  std::exception_ptr error;
  bool done = false;
  /// This query's trace (null = untraced).  The leader writes batch-stage
  /// spans through it strictly before marking `done` under seat_mutex, so
  /// the owner's reads are ordered by the publish that hands the answer
  /// back (see obs/trace.hpp's ownership rule).
  obs::TraceBuilder* trace = nullptr;
  /// Seat enqueue time (0 = untimed) — execute_seat turns it into the
  /// seat-wait histogram sample and the traced seat_wait span.
  std::uint64_t enqueue_ns = 0;
};

// --- State -------------------------------------------------------------------

struct KnnService::State {
  ServiceConfig config;
  std::size_t dim = 0;  ///< 0 = unknown (empty static dataset)

  // Each machine's store.  A static service's stores hold the segments
  // sealed at build and never change; live mode mutates them.
  std::vector<std::unique_ptr<SegmentStore>> stores;
  std::uint64_t next_machine = 0;  ///< round-robin insert routing

  PayloadTables<std::uint32_t> labels;
  PayloadTables<double> targets;

  // Fault-tolerant mode only: the liveness registry gating every scoring
  // step, the recovery mirror (live mode — what re-shards a dead machine's
  // points; doubles point memory, the price of single-copy ownership in
  // the k-machine model), and erases issued while their owner was dead
  // (applied if the machine revives; recovery consults the mirror, which
  // already excludes them — deletes never resurrect either way).
  std::unique_ptr<MachineHealth> health;
  std::unique_ptr<ReplicaMirror> mirror;
  std::vector<std::vector<PointId>> pending_erases;

  EpochResultCache cache;
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> batches{0};

  /// Per-query trace sampling gate + recent-trace ring (obs/trace.hpp).
  obs::Tracer tracer;

  // The *mutation* mutex: insert / erase / compact installs / kill /
  // revive / recover (and the bookkeeping readers over the mutable mirror)
  // serialize here.  The query paths never touch it — they read the
  // published snapshot below.
  std::mutex mutex;

  // The read-path snapshot, swapped under a leaf mutex (not
  // std::atomic<shared_ptr>: TSan can't see through libstdc++'s _Sp_atomic,
  // and a leaf mutex held for one pointer copy costs the same — the exact
  // convention SegmentStore::snapshot() uses).
  mutable std::mutex snapshot_mutex;
  std::shared_ptr<const Snapshot> snapshot;

  // query()'s coalescing seat (one per service).
  std::mutex seat_mutex;
  std::condition_variable seat_cv;   ///< arrivals, completions, leader hand-off
  std::vector<SeatSlot*> seat_queue; ///< guarded by seat_mutex
  bool seat_leader_active = false;   ///< guarded by seat_mutex

  // Service-owned scoring pool (null when scoring is serial or the caller
  // supplied an external pool); `scoring` is config.scoring with the pool
  // wired in.
  std::unique_ptr<ThreadPool> pool;
  BatchScoringConfig scoring;

  // Background compactors (live mode with an owned pool), one per store.
  // Declared after `pool` so they destroy first: each drains its in-flight
  // round (whose completion hook takes `mutex` and republishes) before the
  // pool — or anything the hook touches — goes away.
  std::vector<std::unique_ptr<Compactor>> compactors;

  State(std::size_t cache_capacity, std::uint64_t trace_sample_every, std::size_t trace_capacity)
      : cache(cache_capacity), tracer(trace_sample_every, trace_capacity) {}

  /// The strictly monotone service epoch (sum of per-store epochs; each
  /// store's epoch never decreases and every mutation bumps one, so equal
  /// sums imply an identical store state).  0 for a static service — its
  /// dataset never moves.
  [[nodiscard]] std::uint64_t epoch() const {
    if (!config.live) return 0;
    std::uint64_t sum = 0;
    for (const auto& store : stores) sum += store->epoch();
    return sum;
  }
};

namespace {

/// One locked pointer copy of the published snapshot (templated so the
/// helper needn't name the private Snapshot type).
template <typename SnapPtr>
[[nodiscard]] SnapPtr load_published(std::mutex& mutex, const SnapPtr& slot) {
  const std::lock_guard<std::mutex> lock(mutex);
  return slot;
}

/// Facade metrics (obs/metrics.hpp), process-wide across services.  The
/// query/hit/miss counters move together at the end of run_batch_core, so
/// hits + misses == queries holds by construction at every quiescent read
/// (the invariant bench/check_metrics_schema.py asserts).
struct ServiceMetrics {
  obs::Counter& queries = obs::registry().counter(
      "dknn_service_queries_total", "query/query_batch answers produced by any KnnService");
  obs::Counter& batches = obs::registry().counter(
      "dknn_service_batches_total", "scoring+protocol runs executed by the facade");
  obs::Counter& cache_hits = obs::registry().counter(
      "dknn_service_cache_hits_total", "facade answers served from the epoch result cache");
  obs::Counter& cache_misses = obs::registry().counter(
      "dknn_service_cache_misses_total", "facade answers that ran scoring + selection");
  obs::Counter& epoch_publishes = obs::registry().counter(
      "dknn_service_epoch_publishes_total", "read-path snapshot publishes (mutations, installs)");
  obs::Histogram& query_latency = obs::registry().histogram(
      "dknn_service_query_latency_ns", "query() entry to answer, seat wait included");
  obs::Histogram& query_seat_wait = obs::registry().histogram(
      "dknn_service_seat_wait_ns", "seat enqueue -> batch execution start, per coalesced query");
  obs::Histogram& coalesce_batch_size = obs::registry().histogram(
      "dknn_service_coalesce_batch_size", "queries per coalescing-seat execute");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics m;
  return m;
}

}  // namespace

void KnnService::publish_locked(State& state) {
  auto snap = std::make_shared<Snapshot>();
  snap->labels = state.labels;
  snap->targets = state.targets;
  snap->epoch = state.epoch();
  std::vector<char> alive;
  if (state.health != nullptr) {
    // One view() read keeps generation / coverage / alive-mask coherent —
    // a concurrent probe detection between separate reads could publish a
    // generation that disagrees with the store set.
    LivenessView view = state.health->view();
    snap->generation = view.generation;
    snap->coverage = std::move(view.coverage);
    alive = std::move(view.alive);
  } else {
    snap->coverage.total = static_cast<std::uint32_t>(state.stores.size());
  }
  static const SnapshotPtr retired = std::make_shared<const ServeSnapshot>();
  const std::vector<std::uint32_t>& dead = snap->coverage.missing;
  snap->stores.reserve(state.stores.size());
  for (std::size_t m = 0; m < state.stores.size(); ++m) {
    if (state.health == nullptr || alive[m] != 0) {
      snap->stores.push_back(state.stores[m]->snapshot());
    } else {
      snap->stores.push_back(std::binary_search(dead.begin(), dead.end(), m) ? nullptr : retired);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(state.snapshot_mutex);
    state.snapshot = std::move(snap);
  }
  service_metrics().epoch_publishes.add();
}

// --- lifecycle ---------------------------------------------------------------

KnnService::KnnService() = default;
KnnService::KnnService(std::unique_ptr<State> state) : state_(std::move(state)) {}
KnnService::KnnService(KnnService&&) noexcept = default;
KnnService& KnnService::operator=(KnnService&&) noexcept = default;
KnnService::~KnnService() = default;

KnnService::State& KnnService::ensure_built() const {
  if (state_ == nullptr) throw ServiceStateError("dknn: KnnService used before build()");
  return *state_;
}

KnnService::State& KnnService::ensure_live() const {
  State& state = ensure_built();
  if (!state.config.live) {
    throw ServiceStateError(
        "dknn: live-serving call on a static-mode KnnService (build with "
        "KnnServiceBuilder::live)");
  }
  return state;
}

bool KnnService::live() const { return ensure_built().config.live; }
const ServiceConfig& KnnService::config() const { return ensure_built().config; }
std::size_t KnnService::dim() const { return ensure_built().dim; }
std::size_t KnnService::machines() const { return ensure_built().stores.size(); }

std::size_t KnnService::total_points() const {
  State& state = ensure_built();
  const std::lock_guard<std::mutex> lock(state.mutex);
  // The mirror is authoritative in live fault-tolerant mode: a dead
  // machine's store still holds its points (and pending erases), so summing
  // stores would double-count after recovery re-homes them.
  if (state.mirror != nullptr) return state.mirror->total_points();
  std::size_t total = 0;
  for (const auto& store : state.stores) total += store->live_points();
  return total;
}

// --- queries -----------------------------------------------------------------

namespace {

void validate_queries(std::size_t dim, std::span<const PointD> queries) {
  for (const PointD& query : queries) {
    // dim == 0 means the dataset is empty and dimension-free; every scoring
    // path then returns empty keys for any query (mirrors the kernels).
    if (dim != 0) require_query_dim(dim, query.dim());
    require_finite(query);
  }
}

/// Whether answers default to the approximate tier: exactly when the
/// stores' policy (serve.policy, which build() derives from policy unless
/// live(ServeConfig) overrode it) attaches graphs.
[[nodiscard]] bool approx_by_default(const ServiceConfig& config) {
  return config.serve.policy == ScoringPolicy::Approx;
}

}  // namespace

GuardedScoreBatch KnnService::score_snapshot(const State& state, const Snapshot& snap,
                                             std::span<const PointD> queries, std::uint64_t ell,
                                             MetricKind metric, bool approx) {
  BatchScoringConfig scoring = state.scoring;
  scoring.approx = approx;
  if (state.health == nullptr) {
    return {score_serve_snapshots_batch(snap.stores, queries, ell, metric, scoring),
            snap.coverage};
  }
  return score_serve_snapshots_batch_guarded(snap.stores, queries, ell, metric, *state.health,
                                             scoring);
}

BatchQueryResult KnnService::run_batch_core(State& state,
                                            const std::shared_ptr<const Snapshot>& snap,
                                            std::span<const PointD> queries, KnnAlgo algo,
                                            std::uint64_t ell, MetricKind metric, bool approx,
                                            const obs::TraceSink& sink) {
  BatchQueryResult out;
  out.epoch = snap->epoch;
  out.per_query.resize(queries.size());
  const auto batch_size = static_cast<std::uint32_t>(queries.size());
  const bool fault_tolerant = state.health != nullptr;

  // Caching gate.  The key is (coord bits, ℓ, metric, epoch + generation);
  // both epoch and generation are monotone, so equal sums imply an
  // identical (data, liveness) state — a hit is byte-exact.  The snapshot
  // pins the data epoch; the generation can still move under us (a probe
  // detection needs no mutation), so caching is active only while the live
  // generation equals the snapshot's.  A stale window (detection not yet
  // republished) bypasses the cache entirely — scored answers still come
  // out right (the guard skips the dead machine), they just aren't cached,
  // and note_bypass keeps the miss counter reconciled.
  const std::uint64_t live_generation =
      fault_tolerant ? state.health->generation() : 0;
  const bool generation_stable = live_generation == snap->generation;
  const bool caching = state.cache.capacity() > 0 && generation_stable;
  const std::uint64_t cache_epoch = snap->epoch + live_generation;
  // What cache hits are stamped with: the publish-time detected coverage —
  // the generation key guarantees it equals the entry's compute-time state.
  const Coverage& hit_coverage = snap->coverage;

  std::vector<std::size_t> miss_index;
  std::vector<PointD> miss_queries;
  std::vector<std::vector<std::uint64_t>> miss_bits;
  {
    obs::SinkScope span(sink, "cache_lookup");
    if (!caching) {
      miss_index.reserve(queries.size());
      miss_queries.reserve(queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        miss_index.push_back(q);
        miss_queries.push_back(queries[q]);
      }
      state.cache.note_bypass(queries.size());
    } else {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        auto bits = query_coord_bits(queries[q]);
        // Per-call ℓ/metric/approx ride in the key as extra words, so an
        // overridden (or approximate) answer can never collide with a
        // canonical one.
        bits.push_back(ell);
        bits.push_back(static_cast<std::uint64_t>(metric));
        bits.push_back(approx ? 1 : 0);
        if (auto cached = state.cache.lookup(bits, cache_epoch); cached.has_value()) {
          QueryResult& dst = out.per_query[q];
          dst.keys = std::move(*cached);
          dst.epoch = snap->epoch;
          dst.cache_hit = true;
          dst.coverage = hit_coverage;
        } else {
          miss_index.push_back(q);
          miss_queries.push_back(queries[q]);
          miss_bits.push_back(std::move(bits));
        }
      }
    }
    span.set_detail(queries.size() - miss_index.size());  // cache hits
  }

  if (!miss_queries.empty()) {
    // Local computation over every machine's snapshotted store.  Approx
    // routing rides the scoring config: graph-carrying segments switch to
    // the ann beam search, everything else (delta mirrors, small segments,
    // exact-policy services) scores exactly.  Traced approximate batches
    // get an extra ann_search span so the tier shows up in the timeline.
    GuardedScoreBatch scored = [&] {
      obs::SinkScope span(sink, "shard_scoring");
      span.set_detail(snap->stores.size());
      const obs::TraceSink no_sink;
      obs::SinkScope ann_span(approx ? sink : no_sink, "ann_search");
      if (approx) ann_span.set_detail(miss_queries.size());
      return score_snapshot(state, *snap, miss_queries, ell, metric, approx);
    }();
    // Global selection: every miss through one engine run.
    BatchRunResult batch = [&] {
      obs::SinkScope span(sink, "selection");
      span.set_detail(miss_queries.size());
      return run_knn_batch(scored.scored, ell, algo, state.config.engine, state.config.knn);
    }();

    // Publish to the cache only if the generation held through scoring —
    // answers computed while a detection landed belong to neither liveness
    // state's key.  After any detection, opportunistically republish the
    // snapshot (try_lock: a mutator holding the mutex will republish
    // itself) so later reads see the new liveness and caching resumes.
    bool publish = caching;
    if (fault_tolerant) {
      const std::uint64_t post_generation = state.health->generation();
      publish = caching && post_generation == live_generation;
      if (post_generation != snap->generation && state.mutex.try_lock()) {
        publish_locked(state);
        state.mutex.unlock();
      }
    }
    obs::SinkScope span(sink, "merge");
    if (publish) state.cache.make_room(miss_index.size(), cache_epoch);
    for (std::size_t i = 0; i < miss_index.size(); ++i) {
      QueryResult& dst = out.per_query[miss_index[i]];
      GlobalRunResult& src = batch.per_query[i];
      dst.keys = std::move(src.keys);
      dst.report = std::move(src.report);
      dst.iterations = src.iterations;
      dst.attempts = src.attempts;
      dst.candidates = src.candidates;
      dst.prune_ok = src.prune_ok;
      dst.epoch = snap->epoch;
      dst.cache_hit = false;
      dst.coverage = scored.coverage;
      if (publish) state.cache.insert(std::move(miss_bits[i]), cache_epoch, dst.keys);
    }
    out.report = std::move(batch.report);
    state.batches.fetch_add(1, std::memory_order_relaxed);
    service_metrics().batches.add();
  }

  for (QueryResult& result : out.per_query) result.batch_size = batch_size;
  state.queries.fetch_add(queries.size(), std::memory_order_relaxed);
  // hits + misses == queries by construction: the three counters move
  // together here, once per scored/cached batch.
  ServiceMetrics& metrics = service_metrics();
  metrics.queries.add(queries.size());
  metrics.cache_misses.add(miss_index.size());
  metrics.cache_hits.add(queries.size() - miss_index.size());
  return out;
}

BatchQueryResult KnnService::query_batch(std::span<const PointD> queries,
                                         const QueryOptions& options) {
  State& state = ensure_built();
  const std::uint64_t ell = options.ell.value_or(state.config.ell);
  require_positive_ell(ell);
  const KnnAlgo algo = options.algo.value_or(state.config.algo);
  const MetricKind metric = options.metric.value_or(state.config.metric);
  const bool approx = options.approx.value_or(approx_by_default(state.config));
  validate_queries(state.dim, queries);
  // The whole batch traces as one unit when forced or sampled (it is one
  // snapshot + one scored run; per-member spans would all be identical).
  auto trace = state.tracer.begin(options.trace);
  obs::TraceSink sink;
  sink.attach(trace.get());
  const auto snap = load_published(state.snapshot_mutex, state.snapshot);
  if (queries.empty()) {
    BatchQueryResult out;
    out.epoch = snap->epoch;
    return out;
  }
  BatchQueryResult out = run_batch_core(state, snap, queries, algo, ell, metric, approx, sink);
  if (trace != nullptr) state.tracer.finish(std::move(trace));
  return out;
}

void KnnService::execute_seat(State& state, std::span<SeatSlot*> batch) {
  // Seat-batch observability: the effective coalesced size, each timed
  // member's queue wait, and (for traced members) the batch-wide stage
  // spans fanned through a TraceSink.
  if (obs::registry().enabled()) {
    service_metrics().coalesce_batch_size.record(batch.size());
    const std::uint64_t start_ns = obs::now_ns();
    for (const SeatSlot* slot : batch) {
      if (slot->enqueue_ns != 0) {
        service_metrics().query_seat_wait.record(start_ns - slot->enqueue_ns);
      }
    }
  }
  obs::TraceSink batch_sink;
  for (SeatSlot* slot : batch) batch_sink.attach(slot->trace);
  if (!batch_sink.empty()) {
    const std::uint64_t now = obs::now_ns();
    for (SeatSlot* slot : batch) {
      if (slot->trace != nullptr && slot->enqueue_ns != 0) {
        slot->trace->add_span("seat_wait", slot->enqueue_ns, now - slot->enqueue_ns,
                              batch.size());
      }
    }
  }

  // One snapshot for the whole seat batch; group batch-mates by effective
  // (algo, ℓ, metric) — per-call overrides may differ across coalesced
  // callers, and each group is one scored batch.
  const auto snap = [&] {
    obs::SinkScope span(batch_sink, "snapshot_acquire");
    return load_published(state.snapshot_mutex, state.snapshot);
  }();
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto key_of = [&](std::size_t i) {
    return std::make_tuple(static_cast<int>(batch[i]->algo), batch[i]->ell,
                           static_cast<int>(batch[i]->metric), batch[i]->approx);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key_of(a) < key_of(b); });
  std::size_t start = 0;
  while (start < order.size()) {
    std::size_t stop = start + 1;
    while (stop < order.size() && key_of(order[stop]) == key_of(order[start])) ++stop;
    std::vector<PointD> queries;
    queries.reserve(stop - start);
    for (std::size_t i = start; i < stop; ++i) queries.push_back(*batch[order[i]]->query);
    SeatSlot& lead = *batch[order[start]];
    // Stage spans fan to this group's traced members only — batch-mates in
    // other (algo, ℓ, metric) groups ran their stages separately.
    obs::TraceSink group_sink;
    for (std::size_t i = start; i < stop; ++i) group_sink.attach(batch[order[i]]->trace);
    try {
      BatchQueryResult result = run_batch_core(state, snap, queries, lead.algo, lead.ell,
                                               lead.metric, lead.approx, group_sink);
      for (std::size_t i = start; i < stop; ++i) {
        batch[order[i]]->result = std::move(result.per_query[i - start]);
      }
      if (stop - start == 1 && !lead.result.cache_hit) {
        // A lone, uncoalesced query owns its whole run: give it the
        // complete engine report (traffic included).  A coalesced group's
        // whole-batch report belongs to no single caller and is dropped.
        lead.result.report = std::move(result.report);
      }
    } catch (...) {
      // A group that fails (bad_alloc mid-kernel, ...) fails only its own
      // members; other groups still answer.
      for (std::size_t i = start; i < stop; ++i) {
        batch[order[i]]->error = std::current_exception();
      }
    }
    start = stop;
  }
}

QueryResult KnnService::query(const PointD& point, const QueryOptions& options) {
  State& state = ensure_built();
  const std::uint64_t ell = options.ell.value_or(state.config.ell);
  require_positive_ell(ell);
  // Validate before taking a seat: precondition errors stay the caller's
  // own (a throw from inside the scored batch would have to fan out to
  // every batch-mate).
  validate_queries(state.dim, std::span<const PointD>(&point, 1));

  SeatSlot slot;
  slot.query = &point;
  slot.algo = options.algo.value_or(state.config.algo);
  slot.ell = ell;
  slot.metric = options.metric.value_or(state.config.metric);
  slot.approx = options.approx.value_or(approx_by_default(state.config));
  // Observability: one branch each when disabled/unsampled.  The trace
  // builder rides the slot so the seat leader can fan batch-stage spans
  // into it; neither changes any answer byte.
  auto trace = state.tracer.begin(options.trace);
  slot.trace = trace.get();
  const bool timed = obs::registry().enabled();
  if (timed || trace != nullptr) slot.enqueue_ns = obs::now_ns();

  std::unique_lock<std::mutex> lock(state.seat_mutex);
  state.seat_queue.push_back(&slot);
  state.seat_cv.notify_all();  // a collecting leader may be waiting for company
  for (;;) {
    if (slot.done) break;
    if (!state.seat_leader_active) break;  // seat is free and our slot is still queued
    state.seat_cv.wait(lock);
  }
  if (!slot.done) {
    // Leader: collect companions up to coalesce_max_batch or the deadline,
    // then score the whole batch outside the lock — followers only wait on
    // seat_cv, so no lock is held while anything scores.
    state.seat_leader_active = true;
    if (state.config.coalesce_max_delay.count() > 0) {
      const auto deadline = std::chrono::steady_clock::now() + state.config.coalesce_max_delay;
      while (state.seat_queue.size() < state.config.coalesce_max_batch &&
             state.seat_cv.wait_until(lock, deadline) != std::cv_status::timeout) {
      }
    }
    // Take at most coalesce_max_batch slots: an arrival storm while the
    // seat was occupied can queue more.  The leader's own slot always
    // rides in its batch (it returns after this one execute), joined by
    // the oldest queued companions; the remainder stays queued — one of
    // its owners is elected leader by the post-publish notify_all below.
    state.seat_queue.erase(std::find(state.seat_queue.begin(), state.seat_queue.end(), &slot));
    const std::size_t take =
        std::min(state.seat_queue.size(), state.config.coalesce_max_batch - 1);
    std::vector<SeatSlot*> batch(
        state.seat_queue.begin(),
        state.seat_queue.begin() + static_cast<std::ptrdiff_t>(take));
    state.seat_queue.erase(state.seat_queue.begin(),
                           state.seat_queue.begin() + static_cast<std::ptrdiff_t>(take));
    batch.push_back(&slot);
    lock.unlock();
    execute_seat(state, batch);
    lock.lock();
    // Publish results under the lock (followers read `done` + `result`
    // under it), retire the seat, wake everyone: batch members return,
    // queries that arrived mid-execute elect the next leader.
    for (SeatSlot* member : batch) member->done = true;
    state.seat_leader_active = false;
    state.seat_cv.notify_all();
  }
  lock.unlock();
  if (timed && slot.enqueue_ns != 0) {
    service_metrics().query_latency.record(obs::now_ns() - slot.enqueue_ns);
  }
  if (trace != nullptr) state.tracer.finish(std::move(trace));
  if (slot.error != nullptr) std::rethrow_exception(slot.error);
  return std::move(slot.result);
}

template <typename Result, typename Tables, typename Stage>
std::vector<Result> KnnService::payload_batch(std::span<const PointD> queries,
                                              Tables Snapshot::*tables, const char* missing,
                                              const Stage& stage) {
  State& state = ensure_built();
  const auto snap = load_published(state.snapshot_mutex, state.snapshot);
  const Tables& payloads = (*snap).*tables;
  if (!payloads.present) throw ServiceStateError(missing);
  if (queries.empty()) return {};  // consistent with query_batch
  validate_queries(state.dim, queries);

  // One snapshot end to end: the winners come out of the snapshotted
  // stores and the payloads are the tables published with them, so a
  // concurrent erase can never strand a winner without its payload.  Dead
  // machines' shards drop out of the vote or the mean.
  const auto scored = score_snapshot(state, *snap, queries, state.config.ell,
                                     state.config.metric, approx_by_default(state.config))
                          .scored;
  std::vector<Result> results = stage(scored, payloads.tables, state.config);
  state.queries.fetch_add(queries.size(), std::memory_order_relaxed);
  state.batches.fetch_add(1, std::memory_order_relaxed);
  return results;
}

std::vector<ClassifyResult> KnnService::classify_batch(std::span<const PointD> queries,
                                                       VoteRule rule) {
  return payload_batch<ClassifyResult>(
      queries, &Snapshot::labels,
      "dknn: KnnService::classify requires labels (KnnServiceBuilder::labels or insert_labeled)",
      [rule](const auto& scored, const auto& labels, const ServiceConfig& config) {
        return classify_scored_batch(scored, labels, config.ell, config.engine, config.knn, rule);
      });
}

ClassifyResult KnnService::classify(const PointD& point, VoteRule rule) {
  return std::move(classify_batch(std::span<const PointD>(&point, 1), rule).front());
}

std::vector<RegressResult> KnnService::regress_batch(std::span<const PointD> queries) {
  return payload_batch<RegressResult>(
      queries, &Snapshot::targets,
      "dknn: KnnService::regress requires targets (KnnServiceBuilder::targets or insert_target)",
      [](const auto& scored, const auto& targets, const ServiceConfig& config) {
        return regress_scored_batch(scored, targets, config.ell, config.engine, config.knn);
      });
}

RegressResult KnnService::regress(const PointD& point) {
  return std::move(regress_batch(std::span<const PointD>(&point, 1)).front());
}

ServiceStats KnnService::stats() const {
  State& state = ensure_built();
  // Lock-free counters: the query counters are atomics and the cache keeps
  // its own leaf-locked counters.  A quiescent service reconciles exactly
  // (hits + misses == query/query_batch answers at every cache
  // configuration — see the stats convention in result_cache.hpp); a read
  // taken while batches are in flight can lag by the in-flight answers.
  const ResultCacheStats cache = state.cache.stats();
  ServiceStats stats;
  stats.queries = state.queries.load(std::memory_order_relaxed);
  stats.batches = state.batches.load(std::memory_order_relaxed);
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_flushes = cache.flushes;
  // Tree traversal counters are owned by the per-segment trees themselves
  // (relaxed atomics), so no service lock is needed to read them either.
  for (const auto& store : state.stores) stats.tree += store->tree_stats();
  return stats;
}

// --- observability -----------------------------------------------------------

std::string KnnService::metrics_text() const {
  (void)ensure_built();
  return obs::registry().prometheus_text();
}

std::string KnnService::metrics_json() const {
  (void)ensure_built();
  return obs::registry().json_text();
}

std::vector<obs::QueryTrace> KnnService::recent_traces() const {
  return ensure_built().tracer.recent();
}

void KnnService::set_trace_sampling(std::uint64_t sample_every) {
  ensure_built().tracer.set_sample_every(sample_every);
}

// --- live-serving surface ----------------------------------------------------

std::uint64_t KnnService::insert_record(ReplicaRecord record) {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  require_query_dim(state.dim, record.point.dim());
  require_finite(record.point);
  const auto duplicate = [&record] {
    return PreconditionError("dknn: insert: id " + std::to_string(record.id) + " is already live");
  };
  const std::size_t k = state.stores.size();
  std::size_t machine = k;
  if (state.mirror != nullptr) {
    // Fault-tolerant routing: the mirror answers membership in O(1) (a
    // dead machine's store cannot be probed), and dead machines are
    // skipped — the next alive machine in round-robin order takes the
    // point.  All machines down = typed failure, not a hang.
    if (state.mirror->contains(record.id)) throw duplicate();
    for (std::size_t tries = 0; tries < k && machine == k; ++tries) {
      const std::size_t next = state.next_machine++ % k;
      if (state.health->alive(next)) machine = next;
    }
    if (machine == k) throw NoLiveMachinesError("dknn: insert: every machine is dead");
  } else {
    for (const auto& store : state.stores) {
      if (store->contains(record.id)) throw duplicate();
    }
    machine = state.next_machine++ % k;
  }
  state.stores[machine]->insert(record.point, record.id);
  state.labels.write({&record, 1}, {&machine, 1}, &ReplicaRecord::label);
  state.targets.write({&record, 1}, {&machine, 1}, &ReplicaRecord::target);
  if (state.mirror != nullptr) state.mirror->record(machine, std::move(record));
  publish_locked(state);
  return state.epoch();
}

std::uint64_t KnnService::insert(const PointD& point, PointId id) {
  return insert_record({point, id, std::nullopt, std::nullopt});
}

std::uint64_t KnnService::insert_labeled(const PointD& point, PointId id, std::uint32_t label) {
  return insert_record({point, id, label, std::nullopt});
}

std::uint64_t KnnService::insert_target(const PointD& point, PointId id, double target) {
  return insert_record({point, id, std::nullopt, target});
}

std::optional<std::uint64_t> KnnService::erase(PointId id) {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (state.mirror != nullptr) {
    const std::optional<std::size_t> owner = state.mirror->machine_of(id);
    if (!owner.has_value()) return std::nullopt;
    const std::size_t m = *owner;
    state.mirror->erase(id);
    state.labels.erase(m, id);
    state.targets.erase(m, id);
    if (state.health->alive(m)) {
      const bool erased = state.stores[m]->erase(id).has_value();
      DKNN_ASSERT(erased, "fault-tolerant erase: mirror and store disagree");
    } else {
      // The owner is down: the membership change takes effect now (the
      // mirror is authoritative), the store applies it on revive; recovery
      // reads the mirror, so either way the delete never resurrects.  The
      // data epoch does not advance — a dead machine's points are already
      // absent from every answer.
      state.pending_erases[m].push_back(id);
    }
    publish_locked(state);
    return state.epoch();
  }
  for (std::size_t m = 0; m < state.stores.size(); ++m) {
    if (state.stores[m]->erase(id).has_value()) {
      state.labels.erase(m, id);
      state.targets.erase(m, id);
      publish_locked(state);
      return state.epoch();
    }
  }
  return std::nullopt;
}

std::uint64_t KnnService::compact_now() {
  State& state = ensure_live();
  // No service mutex while planning or merging: merges read only frozen
  // views, and installs are conditional on victim identity.  A racing
  // erase that tombstones a victim between plan and install aborts the
  // round (deletes always win) and we simply re-plan; the abort cap bounds
  // the pathological case of a saturating erase storm — the leftover debt
  // just waits for the next call.
  for (const auto& store : state.stores) {
    std::size_t consecutive_aborts = 0;
    while (consecutive_aborts < 8) {
      const SegmentStore::CompactionPlan plan = store->plan_compaction(state.config.compaction);
      if (plan.empty()) break;
      auto merged = SegmentStore::merge_segments(plan.victims, state.config.serve);
      if (store->install_compaction(plan, std::move(merged))) {
        consecutive_aborts = 0;
      } else {
        ++consecutive_aborts;
      }
    }
  }
  const std::lock_guard<std::mutex> lock(state.mutex);
  publish_locked(state);
  return state.epoch();
}

std::size_t KnnService::maybe_compact() {
  State& state = ensure_live();
  if (!state.compactors.empty()) {
    std::size_t scheduled = 0;
    for (const auto& compactor : state.compactors) {
      if (compactor->maybe_schedule()) ++scheduled;
    }
    return scheduled;
  }
  // No owned pool (serial scoring config): one inline round per indebted
  // store — the same conditional-install discipline, synchronously.
  std::size_t rounds = 0;
  for (const auto& store : state.stores) {
    const SegmentStore::CompactionPlan plan = store->plan_compaction(state.config.compaction);
    if (plan.empty()) continue;
    auto merged = SegmentStore::merge_segments(plan.victims, state.config.serve);
    store->install_compaction(plan, std::move(merged));
    ++rounds;
  }
  if (rounds > 0) {
    const std::lock_guard<std::mutex> lock(state.mutex);
    publish_locked(state);
  }
  return rounds;
}

std::uint64_t KnnService::snapshot_epoch() const {
  State& state = ensure_built();
  return load_published(state.snapshot_mutex, state.snapshot)->epoch;
}

bool KnnService::contains(PointId id) const {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (state.mirror != nullptr) return state.mirror->contains(id);
  for (const auto& store : state.stores) {
    if (store->contains(id)) return true;
  }
  return false;
}

std::vector<PointId> KnnService::live_ids() const {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (state.mirror != nullptr) return state.mirror->ids();
  std::vector<PointId> ids;
  for (const auto& store : state.stores) {
    const SnapshotPtr snapshot = store->snapshot();
    for (const SegmentView& segment : snapshot->segments) {
      const std::span<const PointId> rows = segment.data->store().ids();
      segment.for_each_live_row([&](std::size_t row) { ids.push_back(rows[row]); });
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t KnnService::segment_count() const {
  State& state = ensure_built();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::size_t count = 0;
  for (const auto& store : state.stores) count += store->segment_count();
  return count;
}

std::uint64_t KnnService::compaction_debt() const {
  State& state = ensure_built();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::uint64_t debt = 0;
  for (const auto& store : state.stores) debt += store->compaction_debt(state.config.compaction);
  return debt;
}

// --- fault tolerance ---------------------------------------------------------

KnnService::State& KnnService::ensure_fault_tolerant() const {
  State& state = ensure_built();
  if (state.health == nullptr) {
    throw ServiceStateError(
        "dknn: fault-tolerance call on a service built without it (build with "
        "KnnServiceBuilder::fault_tolerant)");
  }
  return state;
}

bool KnnService::fault_tolerant() const { return ensure_built().health != nullptr; }

const MachineHealth& KnnService::health() const { return *ensure_fault_tolerant().health; }

void KnnService::kill_machine(std::size_t machine) {
  State& state = ensure_fault_tolerant();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.health->kill(machine);
  publish_locked(state);
}

void KnnService::revive_machine(std::size_t machine) {
  State& state = ensure_fault_tolerant();
  const std::lock_guard<std::mutex> lock(state.mutex);
  // Deletes issued while the machine was down take effect in its store
  // before it rejoins — a revived machine never resurrects an erased point.
  if (machine < state.pending_erases.size()) {
    for (const PointId id : state.pending_erases[machine]) state.stores[machine]->erase(id);
    state.pending_erases[machine].clear();
  }
  state.health->revive(machine);
  publish_locked(state);
}

void KnnService::set_failure_mode(std::size_t machine, FailureMode mode) {
  State& state = ensure_fault_tolerant();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.health->set_failure_mode(machine, mode);
  // No republish: scripting a probe outcome changes no detected state (the
  // generation moves when a scoring step actually detects the failure —
  // readers then bypass the cache and republish opportunistically).
}

RecoveryReport KnnService::recover_locked(State& state, std::size_t machine) {
  if (state.health->state(machine) != MachineState::Dead) {
    throw ServiceStateError("dknn: recover_machine(" + std::to_string(machine) +
                            "): machine is not dead");
  }
  const std::vector<std::uint32_t> alive = state.health->alive_set();
  if (alive.empty()) throw NoLiveMachinesError("dknn: recovery: every machine is dead");

  // Survivors elect the recovery coordinator; the generation salt makes
  // successive recoveries reproducible yet distinct.
  const std::uint64_t seed = state.config.fault.election_seed + state.health->generation();
  ElectionRun election = elect_coordinator(alive, state.config.fault.election, seed);

  // Re-shard the dead machine's mirrored points round-robin over the
  // survivors, starting at the coordinator.  Records arrive ascending by
  // id, so placement is deterministic.  Payload tables are COW (published
  // snapshots keep reading the old ones): clone each touched survivor's
  // table once, batch the edits, swap at the end.
  std::vector<ReplicaRecord> records = state.mirror->recover(machine);
  state.pending_erases[machine].clear();
  std::size_t start = 0;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (alive[i] == election.coordinator) start = i;
  }
  std::vector<std::size_t> homes(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    homes[i] = alive[(start + i) % alive.size()];
    state.stores[homes[i]]->insert(records[i].point, records[i].id);
  }
  state.labels.write(records, homes, &ReplicaRecord::label);
  state.targets.write(records, homes, &ReplicaRecord::target);
  for (std::size_t i = 0; i < records.size(); ++i) {
    state.mirror->record(homes[i], std::move(records[i]));
  }
  state.labels.clear(machine);
  state.targets.clear(machine);
  state.health->retire(machine);
  publish_locked(state);

  RecoveryReport report;
  report.machine = machine;
  report.election = election;
  report.points_recovered = records.size();
  return report;
}

RecoveryReport KnnService::recover_machine(std::size_t machine) {
  State& state = ensure_fault_tolerant();
  (void)ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return recover_locked(state, machine);
}

std::vector<RecoveryReport> KnnService::recover_all() {
  State& state = ensure_fault_tolerant();
  (void)ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<RecoveryReport> reports;
  for (const std::size_t machine : state.health->dead_set()) {
    reports.push_back(recover_locked(state, machine));
  }
  return reports;
}

std::vector<PointId> KnnService::live_ids_on(std::size_t machine) const {
  State& state = ensure_fault_tolerant();
  (void)ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return state.mirror->ids_on(machine);
}

// --- builder -----------------------------------------------------------------

KnnServiceBuilder& KnnServiceBuilder::machines(std::uint32_t k) {
  config_.machines = k;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::ell(std::uint64_t ell) {
  config_.ell = ell;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::metric(MetricKind kind) {
  config_.metric = kind;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::algo(KnnAlgo algo) {
  config_.algo = algo;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::policy(ScoringPolicy policy) {
  config_.policy = policy;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::leaf_size(std::size_t leaf_size) {
  config_.leaf_size = leaf_size;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::ann(const ann::AnnConfig& ann) {
  config_.ann = ann;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::partition(PartitionScheme scheme) {
  config_.partition = scheme;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::seed(std::uint64_t seed) {
  config_.seed = seed;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::scoring(const BatchScoringConfig& scoring) {
  config_.scoring = scoring;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::engine(const EngineConfig& engine) {
  config_.engine = engine;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::knn(const KnnConfig& knn) {
  config_.knn = knn;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::live() {
  config_.live = true;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::live(const ServeConfig& serve) {
  config_.live = true;
  config_.serve = serve;
  serve_explicit_ = true;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::compaction(const CompactionConfig& compaction) {
  config_.compaction = compaction;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::cache_capacity(std::size_t entries) {
  config_.cache_capacity = entries;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::coalesce(std::size_t max_batch,
                                               std::chrono::microseconds max_delay) {
  config_.coalesce_max_batch = max_batch;
  config_.coalesce_max_delay = max_delay;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::fault_tolerant() {
  config_.fault_tolerant = true;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::fault_tolerant(const FaultConfig& fault) {
  config_.fault_tolerant = true;
  config_.fault = fault;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::trace(std::uint64_t sample_every, std::size_t capacity) {
  config_.trace_sample_every = sample_every;
  config_.trace_capacity = capacity;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::config(const ServiceConfig& config) {
  config_ = config;
  serve_explicit_ = true;  // a hand-rolled config's serve knobs are verbatim
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::dim(std::size_t dim) {
  dim_ = dim;
  return *this;
}

KnnServiceBuilder& KnnServiceBuilder::dataset(std::vector<PointD> points) {
  have_flat_ = true;
  flat_points_ = std::move(points);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::dataset_sharded(std::vector<VectorShard> shards) {
  have_sharded_ = true;
  shards_ = std::move(shards);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::labels(std::vector<std::uint32_t> labels) {
  have_labels_ = true;
  flat_labels_ = std::move(labels);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::targets(std::vector<double> targets) {
  have_targets_ = true;
  flat_targets_ = std::move(targets);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::labels_sharded(
    std::vector<std::vector<std::uint32_t>> labels) {
  have_labels_ = true;
  sharded_labels_ = std::move(labels);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::targets_sharded(std::vector<std::vector<double>> targets) {
  have_targets_ = true;
  sharded_targets_ = std::move(targets);
  return *this;
}

namespace {

/// One payload kind's tables at build (`name`: "labels" or "targets"):
/// sharded payloads sit beside their shard's rows, flat ones follow their
/// point through the partition.
template <typename Value>
PayloadTables<Value> route_payloads(bool present, const std::string& name, bool sharded_input,
                                    const std::vector<std::vector<Value>>& sharded,
                                    const std::vector<Value>& flat,
                                    const std::vector<VectorShard>& shards,
                                    const ShardPlacement& placement) {
  using Table = typename PayloadTables<Value>::Table;
  std::vector<std::shared_ptr<Table>> tables(shards.size());
  for (auto& table : tables) table = std::make_shared<Table>();
  if (present && sharded_input) {
    const std::string misaligned =
        "dknn: " + name + "_sharded() must align with dataset_sharded()";
    if (sharded.size() != shards.size()) throw ServiceStateError(misaligned);
    for (std::size_t m = 0; m < shards.size(); ++m) {
      if (sharded[m].size() != shards[m].points.size()) throw ServiceStateError(misaligned);
      for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
        tables[m]->emplace(shards[m].ids[i], sharded[m][i]);
      }
    }
  } else if (present) {
    for (std::size_t i = 0; i < flat.size(); ++i) {
      const auto [machine, row] = placement[i];
      tables[machine]->emplace(shards[machine].ids[row], flat[i]);
    }
  }
  // The seed of the COW tables: mutators clone-and-swap from here on.
  return {present, {tables.begin(), tables.end()}};
}

}  // namespace

KnnService KnnServiceBuilder::build() {
  require_positive_ell(config_.ell);
  if (config_.coalesce_max_batch == 0) {
    throw ServiceStateError(
        "dknn: coalesce_max_batch must be positive (1 disables coalescing)");
  }
  if (have_flat_ && have_sharded_) {
    throw ServiceStateError("dknn: give the builder dataset() or dataset_sharded(), not both");
  }
  if (config_.scoring.approx) {
    throw ServiceStateError(
        "dknn: ServiceConfig::scoring.approx does not route a KnnService; use "
        "ScoringPolicy::Approx or QueryOptions::approx");
  }

  auto state = std::make_unique<KnnService::State>(config_.cache_capacity,
                                                   config_.trace_sample_every,
                                                   config_.trace_capacity);
  state->config = config_;
  // One policy/leaf-size knob drives both modes' stores unless a live
  // caller handed over explicit store knobs (live(ServeConfig) / config()),
  // which win verbatim; a static dataset has no store knobs of its own.
  // Graph geometry always matches the service's canonical metric — a
  // per-call metric override still searches the built graph (recall
  // degrades gracefully on mismatch, see src/ann/README.md).
  state->config.ann.metric = config_.metric;
  if (!serve_explicit_ || !config_.live) {
    state->config.serve.policy = config_.policy;
    state->config.serve.leaf_size = config_.leaf_size;
    state->config.serve.ann = state->config.ann;
  }

  // Assemble shards + payload tables.
  std::vector<VectorShard> shards;
  const std::size_t flat_count = flat_points_.size();
  ShardPlacement placement;
  if (have_sharded_) {
    if (!flat_labels_.empty() || !flat_targets_.empty()) {
      throw ServiceStateError(
          "dknn: flat labels()/targets() require a flat dataset(); use labels_sharded()/"
          "targets_sharded() with dataset_sharded()");
    }
    shards = std::move(shards_);
    if (shards.empty()) {
      throw ServiceStateError("dknn: dataset_sharded() needs at least one shard");
    }
    state->config.machines = static_cast<std::uint32_t>(shards.size());
  } else {
    if (!sharded_labels_.empty() || !sharded_targets_.empty()) {
      throw ServiceStateError(
          "dknn: labels_sharded()/targets_sharded() require dataset_sharded()");
    }
    if (config_.machines == 0) {
      throw ServiceStateError("dknn: KnnService needs at least one machine");
    }
    if (have_labels_ && flat_labels_.size() != flat_count) {
      throw ServiceStateError("dknn: labels() must align with dataset()");
    }
    if (have_targets_ && flat_targets_.size() != flat_count) {
      throw ServiceStateError("dknn: targets() must align with dataset()");
    }
    Rng rng(config_.seed);
    shards = make_vector_shards(std::move(flat_points_), config_.machines, config_.partition,
                                rng, placement);
  }

  const std::size_t k = shards.size();
  if (const char* error = knn_config_error(config_.knn, static_cast<std::uint32_t>(k))) {
    throw ServiceStateError(error);
  }
  state->labels = route_payloads(have_labels_, "labels", have_sharded_, sharded_labels_,
                                 flat_labels_, shards, placement);
  state->targets = route_payloads(have_targets_, "targets", have_sharded_, sharded_targets_,
                                  flat_targets_, shards, placement);

  // Dimensionality: from the data, else the explicit builder override.
  std::size_t dim = 0;
  for (const VectorShard& shard : shards) {
    if (!shard.points.empty()) {
      dim = shard.points.front().dim();
      break;
    }
  }
  if (dim == 0) dim = dim_;
  state->dim = dim;
  if (config_.live && dim == 0) {
    throw ServiceStateError(
        "dknn: a live KnnService needs a known dimension (provide points or "
        "KnnServiceBuilder::dim)");
  }

  // One store per machine, each shard sealed straight into one segment.
  // An empty static dataset is dimension-free (dim 0); its stores stay
  // empty forever, so any positive store dimension serves.
  state->stores.reserve(k);
  for (const VectorShard& shard : shards) {
    state->stores.push_back(std::make_unique<SegmentStore>(
        std::max<std::size_t>(dim, 1), shard.points, shard.ids, state->config.serve));
  }

  // Fault tolerance: the health registry gates scoring in both modes; the
  // replica mirror (the recovery source) exists only where mutation does —
  // live mode.  The stores copied the shard spans, so reading them here is
  // safe.
  if (state->config.fault_tolerant) {
    state->health = std::make_unique<MachineHealth>(static_cast<std::uint32_t>(k),
                                                    state->config.fault.health);
    if (state->config.live) {
      state->mirror = std::make_unique<ReplicaMirror>(k);
      state->pending_erases.resize(k);
      for (std::size_t m = 0; m < k; ++m) {
        for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
          const PointId id = shards[m].ids[i];
          state->mirror->record(m, ReplicaRecord{shards[m].points[i], id,
                                                 state->labels.find(m, id),
                                                 state->targets.find(m, id)});
        }
      }
    }
  }

  // Service-owned scoring pool: spawn once, reuse across every batch
  // (BatchScoringConfig{threads} would otherwise respawn per call).
  state->scoring = config_.scoring;
  if (state->scoring.pool == nullptr) {
    const std::size_t threads =
        state->scoring.threads != 0
            ? state->scoring.threads
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (threads > 1) {
      state->pool = std::make_unique<ThreadPool>(threads, state->scoring.seed);
      state->scoring.pool = state->pool.get();
    }
  }

  // Background compactors: one per store on the owned pool; each installed
  // round republishes the snapshot from the worker so lock-free readers
  // see the compacted segments without waiting for the next mutation.
  if (state->config.live && state->pool != nullptr) {
    KnnService::State* raw = state.get();
    state->compactors.reserve(state->stores.size());
    for (const auto& store : state->stores) {
      auto compactor =
          std::make_unique<Compactor>(*store, *state->pool, state->config.compaction);
      compactor->set_on_complete([raw](bool installed) {
        if (!installed) return;
        // Safe against the mutation mutex: no code path waits on the pool
        // while holding it, so this lock always clears.
        const std::lock_guard<std::mutex> lock(raw->mutex);
        KnnService::publish_locked(*raw);
      });
      state->compactors.push_back(std::move(compactor));
    }
  }

  // The initial publish — queries are lock-free from the first call.
  KnnService::publish_locked(*state);

  return KnnService(std::move(state));
}

}  // namespace dknn
