#include "fault/health.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

struct HealthMetrics {
  obs::Counter& probes = obs::registry().counter(
      "dknn_health_probes_total", "liveness probes issued by check_call");
  obs::Counter& timeouts = obs::registry().counter(
      "dknn_health_timeouts_total", "probes that exhausted their deadline");
  obs::Counter& deaths_detected = obs::registry().counter(
      "dknn_health_deaths_detected_total", "machines marked Dead by deadline detection");
  obs::Counter& kills = obs::registry().counter(
      "dknn_health_kills_total", "explicit kill() transitions");
  obs::Counter& revives = obs::registry().counter(
      "dknn_health_revives_total", "explicit revive() transitions");
  obs::Counter& retires = obs::registry().counter(
      "dknn_health_retires_total", "explicit retire() transitions");
  /// Accounted (never slept) probe cost per check_call: deadline misses ×
  /// per-call deadline + exponential backoff, the simulator's stand-in
  /// for wall-clock probe latency.
  obs::Histogram& probe_latency = obs::registry().histogram(
      "dknn_health_probe_latency_ns", "accounted deadline + backoff cost per check_call");
};

HealthMetrics& health_metrics() {
  static HealthMetrics m;
  return m;
}

}  // namespace

MachineHealth::MachineHealth(std::size_t machines, HealthConfig config)
    : config_(config), states_(machines, MachineState::Alive), modes_(machines) {
  DKNN_REQUIRE(machines >= 1, "MachineHealth needs at least one machine");
}

void MachineHealth::require_machine(std::size_t machine) const {
  DKNN_REQUIRE(machine < states_.size(), "MachineHealth: bad machine id");
}

MachineState MachineHealth::state(std::size_t machine) const {
  require_machine(machine);
  const std::lock_guard<std::mutex> lock(mutex_);
  return states_[machine];
}

bool MachineHealth::alive(std::size_t machine) const {
  return state(machine) == MachineState::Alive;
}

std::size_t MachineHealth::alive_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const MachineState s : states_) count += s == MachineState::Alive ? 1 : 0;
  return count;
}

std::vector<std::uint32_t> MachineHealth::alive_set() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint32_t> out;
  for (std::size_t m = 0; m < states_.size(); ++m) {
    if (states_[m] == MachineState::Alive) out.push_back(static_cast<std::uint32_t>(m));
  }
  return out;
}

std::vector<std::uint32_t> MachineHealth::dead_set() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint32_t> out;
  for (std::size_t m = 0; m < states_.size(); ++m) {
    if (states_[m] == MachineState::Dead) out.push_back(static_cast<std::uint32_t>(m));
  }
  return out;
}

std::uint64_t MachineHealth::generation() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

void MachineHealth::kill(std::size_t machine) {
  require_machine(machine);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (states_[machine] != MachineState::Alive) {
    throw std::logic_error("MachineHealth::kill: machine " + std::to_string(machine) +
                           " is not alive");
  }
  states_[machine] = MachineState::Dead;
  ++generation_;
  ++stats_.kills;
  health_metrics().kills.add();
}

void MachineHealth::revive(std::size_t machine) {
  require_machine(machine);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (states_[machine] != MachineState::Dead) {
    throw std::logic_error("MachineHealth::revive: machine " + std::to_string(machine) +
                           " is not dead");
  }
  states_[machine] = MachineState::Alive;
  modes_[machine] = FailureMode{};  // a revived machine answers again
  ++generation_;
  ++stats_.revives;
  health_metrics().revives.add();
}

void MachineHealth::retire(std::size_t machine) {
  require_machine(machine);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (states_[machine] != MachineState::Dead) {
    throw std::logic_error("MachineHealth::retire: machine " + std::to_string(machine) +
                           " is not dead");
  }
  states_[machine] = MachineState::Retired;
  ++generation_;
  ++stats_.retires;
  health_metrics().retires.add();
}

void MachineHealth::set_failure_mode(std::size_t machine, FailureMode mode) {
  require_machine(machine);
  const std::lock_guard<std::mutex> lock(mutex_);
  modes_[machine] = mode;
}

CallReport MachineHealth::check_call(std::size_t machine) {
  require_machine(machine);
  const std::lock_guard<std::mutex> lock(mutex_);
  CallReport report;
  if (states_[machine] == MachineState::Dead) {
    report.status = CallStatus::Dead;
    return report;
  }
  if (states_[machine] == MachineState::Retired) {
    report.status = CallStatus::Retired;
    return report;
  }

  FailureMode& mode = modes_[machine];
  HealthMetrics& metrics = health_metrics();
  for (std::uint32_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    ++report.attempts;
    ++stats_.probes;
    metrics.probes.add();
    bool answered = false;
    switch (mode.kind) {
      case FailureModeKind::Healthy:
        answered = true;
        break;
      case FailureModeKind::Slow:
        if (mode.timeouts > 0) {
          --mode.timeouts;
          if (mode.timeouts == 0) mode.kind = FailureModeKind::Healthy;
        } else {
          answered = true;
        }
        break;
      case FailureModeKind::Unresponsive:
        break;
    }
    if (answered) {
      report.status = CallStatus::Ok;
      stats_.backoff_ns += report.backoff_ns;
      // Accounted cost: each failed attempt burned its full deadline,
      // plus the recorded backoff between attempts.
      metrics.probe_latency.record(
          (report.attempts - 1) * config_.call_deadline_ns + report.backoff_ns);
      return report;
    }
    ++stats_.timeouts;
    metrics.timeouts.add();
    if (attempt < config_.max_retries) {
      report.backoff_ns += config_.backoff_ns << attempt;  // exponential
    }
  }

  // All probes exhausted their deadline: deadline-based detection.
  states_[machine] = MachineState::Dead;
  ++generation_;
  ++stats_.deaths_detected;
  metrics.deaths_detected.add();
  stats_.backoff_ns += report.backoff_ns;
  report.status = CallStatus::TimedOut;
  metrics.probe_latency.record(report.attempts * config_.call_deadline_ns + report.backoff_ns);
  return report;
}

Coverage MachineHealth::coverage_now() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Coverage coverage;
  for (std::size_t m = 0; m < states_.size(); ++m) {
    if (states_[m] == MachineState::Retired) continue;
    ++coverage.total;
    if (states_[m] == MachineState::Dead) {
      coverage.missing.push_back(static_cast<std::uint32_t>(m));
    }
  }
  return coverage;
}

LivenessView MachineHealth::view() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  LivenessView view;
  view.generation = generation_;
  view.alive.resize(states_.size(), 0);
  for (std::size_t m = 0; m < states_.size(); ++m) {
    if (states_[m] == MachineState::Retired) continue;
    ++view.coverage.total;
    if (states_[m] == MachineState::Dead) {
      view.coverage.missing.push_back(static_cast<std::uint32_t>(m));
    } else {
      view.alive[m] = 1;
    }
  }
  return view;
}

HealthStats MachineHealth::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace dknn
