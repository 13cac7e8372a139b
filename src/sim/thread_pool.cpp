#include "sim/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dknn {
namespace {

/// Worker identity for nested submission: set for the lifetime of
/// worker_loop, so submit() can route a job to the submitting worker's own
/// deque instead of bouncing it through another worker.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;

struct PoolMetrics {
  obs::Counter& tasks = obs::registry().counter(
      "dknn_pool_tasks_total", "jobs submitted to any ThreadPool");
  obs::Counter& steals = obs::registry().counter(
      "dknn_pool_steals_total", "successful steal-half plunders");
  obs::Gauge& queue_depth = obs::registry().gauge(
      "dknn_pool_queue_depth", "jobs queued but not yet started, across all pools");
  obs::Histogram& task_latency = obs::registry().histogram(
      "dknn_pool_task_latency_ns", "job run time on a worker (excludes queueing)");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, std::uint64_t seed) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const Rng root(seed);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    // Same (root seed, index) stream derivation the engine uses for machine
    // RNGs: worker streams are reproducible run-to-run for a fixed seed.
    workers_.push_back(std::make_unique<Worker>(root.split(i)));
  }
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(sleep_mutex_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  work_available_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::submit(std::function<void()> job) {
  std::size_t target;
  if (tl_pool == this) {
    target = tl_worker;  // nested submission: stay on the submitting worker
  } else {
    target = next_external_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  }
  // Publish the counters *before* the job becomes stealable, so neither can
  // be observed at zero while the job is live.
  unfinished_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_relaxed);
  pool_metrics().tasks.add();
  pool_metrics().queue_depth.add(1);
  {
    std::lock_guard lock(workers_[target]->mutex);
    workers_[target]->jobs.push_back(std::move(job));
  }
  {
    std::lock_guard lock(sleep_mutex_);
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(sleep_mutex_);
  all_done_.wait(lock, [this] { return unfinished_.load(std::memory_order_acquire) == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

bool ThreadPool::try_pop_local(std::size_t index, std::function<void()>& job) {
  Worker& self = *workers_[index];
  std::lock_guard lock(self.mutex);
  if (self.jobs.empty()) return false;
  job = std::move(self.jobs.back());  // LIFO: nested submissions run cache-hot
  self.jobs.pop_back();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  pool_metrics().queue_depth.sub(1);
  return true;
}

bool ThreadPool::try_steal(std::size_t index, std::function<void()>& job) {
  const std::size_t count = workers_.size();
  if (count <= 1) return false;
  Worker& self = *workers_[index];

  auto plunder = [&](std::size_t v) -> bool {
    Worker& victim = *workers_[v];
    std::vector<std::function<void()>> loot;
    {
      std::lock_guard lock(victim.mutex);
      const std::size_t avail = victim.jobs.size();
      if (avail == 0) return false;
      // Steal half, oldest first: the front of the deque holds the coarsest
      // not-yet-started work, so one steal rebalances a whole burst.
      const std::size_t take = (avail + 1) / 2;
      loot.reserve(take);
      for (std::size_t t = 0; t < take; ++t) {
        loot.push_back(std::move(victim.jobs.front()));
        victim.jobs.pop_front();
      }
    }
    job = std::move(loot.front());
    queued_.fetch_sub(1, std::memory_order_relaxed);
    pool_metrics().queue_depth.sub(1);
    pool_metrics().steals.add();
    if (loot.size() > 1) {
      std::lock_guard lock(self.mutex);
      for (std::size_t t = 1; t < loot.size(); ++t) self.jobs.push_back(std::move(loot[t]));
    }
    return true;
  };

  // A few random probes (per-worker deterministic stream), then one full
  // sweep so an empty-handed return really means "nothing was visible".
  for (int probe = 0; probe < 4; ++probe) {
    const auto v = static_cast<std::size_t>(self.rng.below(count));
    if (v != index && plunder(v)) return true;
  }
  for (std::size_t v = 0; v < count; ++v) {
    if (v != index && plunder(v)) return true;
  }
  return false;
}

void ThreadPool::run_job(std::function<void()>& job) {
  // Clock reads only when metrics are live — disabled observability must
  // cost this hot loop nothing but the branch.
  const bool timed = obs::registry().enabled();
  const std::uint64_t start_ns = timed ? obs::now_ns() : 0;
  try {
    job();
  } catch (...) {
    std::lock_guard lock(sleep_mutex_);
    if (first_error_ == nullptr) first_error_ = std::current_exception();
  }
  if (timed) pool_metrics().task_latency.record(obs::now_ns() - start_ns);
  job = nullptr;  // drop closure state before declaring the job finished
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard lock(sleep_mutex_);
    all_done_.notify_all();
  }
}

ThreadPool::TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
  }
}

void ThreadPool::TaskGroup::submit(std::function<void()> job) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  // The wrapper owns error capture: a group job's exception lands in the
  // group (rethrown from its wait()), never in the pool's first_error_ —
  // so an unrelated wait_idle() caller cannot steal it.
  pool_.submit([this, job = std::move(job)] {
    try {
      job();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
    // Decrement under mutex_: wait() reads pending_ under it, so it cannot
    // see 0, return and destroy the group until this job's last touch of
    // the group (the notify and the unlock) is done.
    std::lock_guard lock(mutex_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) done_.notify_all();
  });
}

void ThreadPool::TaskGroup::wait() {
  std::unique_lock lock(mutex_);
  done_.wait(lock, [this] { return pending_.load(std::memory_order_acquire) == 0; });
  if (error_ != nullptr) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_worker = index;
  std::function<void()> job;
  while (true) {
    if (try_pop_local(index, job) || try_steal(index, job)) {
      run_job(job);
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    work_available_.wait(lock, [this] {
      return stopping_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_relaxed) > 0;
    });
    // Drain-on-shutdown: exit only once no job is visible anywhere.  A job
    // still *running* elsewhere may spawn nested work, but that lands on
    // its own worker's deque, which that worker drains before exiting.
    if (stopping_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_relaxed) == 0) {
      return;
    }
  }
}

}  // namespace dknn
