#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "sim/thread_pool.hpp"
#include "support/panic.hpp"
#include "support/timer.hpp"

namespace dknn {

Engine::Engine(EngineConfig config) : config_(config) {
  DKNN_REQUIRE(config_.world_size >= 1, "engine needs at least one machine");
  NetworkConfig net;
  net.world_size = config_.world_size;
  net.policy = config_.bandwidth;
  net.bits_per_round = config_.bits_per_round;
  net.ingress_bits_per_round = config_.ingress_bits_per_round;
  network_ = std::make_unique<Network>(net);
}

RunReport Engine::run(const MachineProgram& program) {
  const std::uint32_t k = config_.world_size;
  const Rng root(config_.seed);

  std::vector<std::unique_ptr<Ctx>> ctxs;
  ctxs.reserve(k);
  std::vector<Task<void>> tasks;
  tasks.reserve(k);
  for (MachineId i = 0; i < k; ++i) {
    ctxs.push_back(std::make_unique<Ctx>(i, k, root.split(i)));
    tasks.push_back(program(*ctxs[i]));
    DKNN_REQUIRE(tasks.back().valid(), "machine program must return a live Task");
    ctxs[i]->engine_set_resume(tasks[i].handle());
  }

  std::unique_ptr<ThreadPool> pool;
  // Pool victim-selection streams derive from the run seed, so a parallel
  // run's scheduling randomness is reproducible run-to-run like every other
  // random choice in the simulation.
  if (config_.parallel && k > 1) pool = std::make_unique<ThreadPool>(config_.threads, config_.seed);

  RunReport report;
  std::vector<std::uint64_t> step_ns(k, 0);
  std::vector<bool> alive(k, true);
  std::size_t alive_count = k;
  std::uint64_t round = 0;

  while (alive_count > 0) {
    if (round >= config_.max_rounds) {
      throw SimError("round budget exhausted after " + std::to_string(round) +
                     " rounds — deadlock or runaway protocol (max_rounds=" +
                     std::to_string(config_.max_rounds) + ")");
    }

    // (1) Deliver everything that completed transmission last round.
    network_->set_current_round(round);
    for (MachineId i = 0; i < k; ++i) {
      ctxs[i]->engine_set_round(round);
      ctxs[i]->engine_deliver(network_->delivered(i));
    }

    // (2) Superstep: resume every runnable machine until it parks or
    // finishes.  Machines parked on a mail barrier with no new deliveries
    // are skipped — observationally equivalent and O(deliveries) instead of
    // O(rounds) during long bandwidth-limited transfers.
    auto step = [&](MachineId i) {
      auto handle = ctxs[i]->engine_take_resume();
      if (!handle) {
        step_ns[i] = 0;
        return;
      }
      if (config_.measure_compute) {
        WallTimer timer;
        handle.resume();
        step_ns[i] = timer.elapsed_ns();
      } else {
        handle.resume();
        step_ns[i] = 0;
      }
    };
    std::size_t stepped = 0;
    std::size_t stalled = 0;
    // The stall hook runs on the engine thread in machine order (also under
    // the pool executor), so hook state needs no synchronization.
    auto stalls = [&](MachineId i) {
      if (!config_.stall_hook || !config_.stall_hook(i, round)) return false;
      ++stalled;
      return true;
    };
    if (pool) {
      for (MachineId i = 0; i < k; ++i) {
        step_ns[i] = 0;
        if (alive[i] && ctxs[i]->engine_runnable() && !stalls(i)) {
          ++stepped;
          pool->submit([&step, i] { step(i); });
        }
      }
      pool->wait_idle();
    } else {
      for (MachineId i = 0; i < k; ++i) {
        step_ns[i] = 0;
        if (alive[i] && ctxs[i]->engine_runnable() && !stalls(i)) {
          ++stepped;
          step(i);
        }
      }
    }

    // Fast deadlock detection: nobody ran, nobody can be woken by traffic,
    // and nobody is merely stalled (a stalled machine may run next round —
    // a *permanent* stall ends in the round-budget SimError instead).
    if (stepped == 0 && stalled == 0 && !network_->in_flight() && alive_count > 0) {
      throw SimError("deadlock: all machines are waiting for messages and none are in flight");
    }

    // (3) Completions and failures (in machine order for determinism).
    for (MachineId i = 0; i < k; ++i) {
      if (!alive[i]) continue;
      if (tasks[i].done()) {
        tasks[i].rethrow_if_failed();
        alive[i] = false;
        --alive_count;
      } else {
        DKNN_ASSERT(ctxs[i]->engine_has_resume(),
                    "machine suspended outside a round barrier");
      }
    }

    // (4) Outboxes into the link model, ascending machine id (determinism).
    for (MachineId i = 0; i < k; ++i) {
      std::vector<Envelope>& outbox = ctxs[i]->engine_outbox();
      for (auto& env : outbox) network_->send(std::move(env));
      outbox.clear();
    }

    // (5) Transmit B bits per directed link.
    network_->end_round(round);

    // (6) Cost accounting.
    std::uint64_t round_max = 0;
    std::uint64_t round_sum = 0;
    for (MachineId i = 0; i < k; ++i) {
      round_max = std::max(round_max, step_ns[i]);
      round_sum += step_ns[i];
    }
    if (config_.measure_compute) report.round_max_comp_ns.push_back(round_max);
    report.critical_path_comp_ns += round_max;
    report.total_comp_ns += round_sum;

    ++round;
  }

  report.rounds = round;
  report.traffic = network_->stats();
  return report;
}

}  // namespace dknn
