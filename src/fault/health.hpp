#pragma once
/// \file health.hpp
/// \brief Per-machine liveness registry with deadline-based failure
///        detection — the fault layer under the serving stack.
///
/// The paper's congested-clique protocol assumes a fault-free synchronous
/// network, and every layer above it inherited that assumption: a dead
/// SegmentStore machine would hang the scoring step forever.  `MachineHealth`
/// makes failure a first-class, *detected* state instead:
///
///   * every cross-machine scoring step consults `check_call(m)` before
///     touching machine m's data — one bounded probe sequence (per-probe
///     deadline, `max_retries` retries with exponential backoff) that either
///     succeeds or marks the machine Dead;
///   * callers that see a non-Ok report skip the machine and surface the
///     exactness loss through a `Coverage` field rather than a hang or a
///     silent wrong answer;
///   * every liveness transition (kill, detection, revive, retire) bumps a
///     monotone `generation()` counter — the component result caches mix
///     into their epoch key so a degraded answer is never served after
///     recovery, and vice versa.
///
/// Deadlines in-process: the simulator has no real transport, so probe
/// outcomes come from per-machine *failure modes* (`Healthy`, `Slow{n}`,
/// `Unresponsive`) installed by tests and chaos harnesses; the deadline and
/// backoff budgets are *recorded* against the configured nanosecond costs
/// instead of slept.  A real transport plugs wall clocks into the same
/// report shape — the retry/backoff/degrade semantics above it do not
/// change (this is the seam the ROADMAP's multi-process transport item
/// plugs into).
///
/// States:  Alive ──kill/detect──▶ Dead ──revive──▶ Alive
///                                   └──retire──▶ Retired  (terminal)
/// Retired machines re-homed their data onto survivors (recovery) and drop
/// out of `Coverage::total`; Dead machines are missing-but-expected.
///
/// Thread-safety: all methods serialize on an internal mutex; `check_call`
/// is safe from concurrent scoring threads.

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace dknn {

/// A fault-layer call that found no machine left to serve from.
class NoLiveMachinesError final : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class MachineState : std::uint8_t {
  Alive,    ///< serving; probes may still fail (failure mode)
  Dead,     ///< killed or detected; data unreachable but still owned
  Retired,  ///< recovered: data re-homed onto survivors, out of coverage
};

/// Scripted probe behaviour of one machine (how the simulator stands in
/// for a real transport's timeouts).
enum class FailureModeKind : std::uint8_t {
  Healthy,       ///< every probe succeeds
  Slow,          ///< the next `timeouts` probes miss their deadline, then ok
  Unresponsive,  ///< every probe misses its deadline (detected Dead on the
                 ///< first check_call that exhausts its retries)
};

struct FailureMode {
  FailureModeKind kind = FailureModeKind::Healthy;
  /// Slow only: probes that exceed the deadline before the machine answers.
  std::uint32_t timeouts = 0;
};

/// Detection budgets.  Nanosecond fields are accounting (recorded in the
/// CallReport / stats), not slept — see the file comment.
struct HealthConfig {
  /// Per-probe deadline.
  std::uint64_t call_deadline_ns = 2'000'000;
  /// Retries after the first probe; a call issues `max_retries + 1` probes
  /// before declaring the machine dead.
  std::uint32_t max_retries = 2;
  /// Base backoff between probes; doubles per retry (bounded: the series
  /// is finite by max_retries).
  std::uint64_t backoff_ns = 100'000;
};

enum class CallStatus : std::uint8_t {
  Ok,        ///< machine answered within its deadline (possibly after retries)
  TimedOut,  ///< every probe missed its deadline — machine marked Dead now
  Dead,      ///< machine was already Dead; no probes issued
  Retired,   ///< machine is Retired; no probes issued, not in coverage
};

/// Outcome of one deadline-guarded call.
struct CallReport {
  CallStatus status = CallStatus::Ok;
  std::uint32_t attempts = 0;     ///< probes issued
  std::uint64_t backoff_ns = 0;   ///< total backoff charged between probes

  [[nodiscard]] bool ok() const { return status == CallStatus::Ok; }
};

/// Which machines answered a cross-machine step.  `total` counts the
/// machines expected to answer (everything not Retired); `missing` lists
/// the Dead / timed-out machine ids, ascending.
struct Coverage {
  std::uint32_t total = 0;
  std::vector<std::uint32_t> missing;

  [[nodiscard]] std::uint32_t answered() const {
    return total - static_cast<std::uint32_t>(missing.size());
  }
  [[nodiscard]] bool complete() const { return missing.empty(); }
  [[nodiscard]] double fraction() const {
    return total == 0 ? 1.0 : static_cast<double>(answered()) / static_cast<double>(total);
  }
};

/// One atomically-read (generation, coverage, alive mask) triple — the
/// detected liveness state at a single instant.  Callers that read
/// generation() and coverage_now() separately can tear across a concurrent
/// transition; snapshot publishers (KnnService) and lock-free cache keys
/// need the three to describe the *same* state.
struct LivenessView {
  std::uint64_t generation = 0;
  Coverage coverage;
  /// alive[m] != 0 iff machine m is Alive (reachable for a snapshot).
  std::vector<char> alive;
};

struct HealthStats {
  std::uint64_t probes = 0;           ///< individual probes issued
  std::uint64_t timeouts = 0;         ///< probes that missed their deadline
  std::uint64_t backoff_ns = 0;       ///< total backoff charged
  std::uint64_t deaths_detected = 0;  ///< check_call declared a machine dead
  std::uint64_t kills = 0;            ///< explicit kill()s
  std::uint64_t revives = 0;
  std::uint64_t retires = 0;
};

class MachineHealth {
 public:
  explicit MachineHealth(std::size_t machines, HealthConfig config = {});

  [[nodiscard]] std::size_t machines() const { return states_.size(); }
  [[nodiscard]] const HealthConfig& config() const { return config_; }

  [[nodiscard]] MachineState state(std::size_t machine) const;
  [[nodiscard]] bool alive(std::size_t machine) const;
  [[nodiscard]] std::size_t alive_count() const;
  /// Alive machine ids, ascending.
  [[nodiscard]] std::vector<std::uint32_t> alive_set() const;
  /// Dead (not Retired) machine ids, ascending.
  [[nodiscard]] std::vector<std::uint32_t> dead_set() const;

  /// Monotone liveness-state counter: bumped by every kill / detection /
  /// revive / retire.  Caches mix this into their epoch key so answers
  /// computed against different live sets can never collide.
  [[nodiscard]] std::uint64_t generation() const;

  /// Alive → Dead (explicit fail-stop, e.g. chaos harness or an operator).
  /// Throws std::logic_error unless the machine is Alive.
  void kill(std::size_t machine);
  /// Dead → Alive; clears the failure mode.  Throws unless Dead.
  void revive(std::size_t machine);
  /// Dead → Retired (after recovery re-homed its data).  Throws unless Dead.
  void retire(std::size_t machine);

  /// Scripts probe outcomes for an Alive machine (see FailureModeKind).
  void set_failure_mode(std::size_t machine, FailureMode mode);

  /// Deadline-guarded call gate: probes `machine` with bounded
  /// retry-with-backoff.  Ok when the machine answers within the budget;
  /// TimedOut marks it Dead (generation bump) and reports the exhausted
  /// attempt count; Dead / Retired short-circuit without probing.
  [[nodiscard]] CallReport check_call(std::size_t machine);

  /// Coverage of the current *detected* state — no probes issued (used for
  /// cache hits, where the generation key guarantees the state matches the
  /// entry's compute-time state).
  [[nodiscard]] Coverage coverage_now() const;

  /// The detected state as one consistent triple (generation + coverage +
  /// alive mask), read under a single lock acquisition — see LivenessView.
  [[nodiscard]] LivenessView view() const;

  [[nodiscard]] HealthStats stats() const;

 private:
  void require_machine(std::size_t machine) const;

  HealthConfig config_;
  mutable std::mutex mutex_;
  std::vector<MachineState> states_;
  std::vector<FailureMode> modes_;
  std::uint64_t generation_ = 0;
  HealthStats stats_;
};

}  // namespace dknn
