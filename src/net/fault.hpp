#pragma once
/// \file fault.hpp
/// \brief Fault injection for robustness tests.
///
/// The paper assumes a fault-free synchronous network; the simulator's fault
/// adapter exists so tests can demonstrate (a) that the engine's round cap
/// converts lost-message deadlocks into diagnosable errors rather than
/// hangs, and (b) which protocol steps are actually loss-sensitive.
///
/// Three fault modes, applied per message in a fixed precedence (drop, then
/// delay, then duplicate — at most one fires):
///   * drop      — the message vanishes;
///   * delay     — the message enters its link `delay_rounds` rounds late
///                 (late wake-up, not loss: protocols must still converge);
///   * duplicate — the message is queued twice back to back with the same
///                 sequence number.  The network delivers both copies (and
///                 both consume link bandwidth under bounded policies).
///                 Links only append and a message gets one decision, so
///                 the copy is always the next message its receiver gets
///                 from that sender; the engine's Ctx drops a repeat of the
///                 last seq from each source — at-most-once delivery — so
///                 protocols stay correct while their traffic timing is
///                 still perturbed.
///
/// Determinism contract: the drop decision consumes exactly one bernoulli
/// draw per eligible message regardless of which other modes are enabled,
/// and the delay / duplicate draws happen only when their probabilities are
/// positive — so a drop-only plan's rng stream, drop decisions, and
/// delivered bytes are identical to what they were before the delay /
/// duplicate modes existed (pinned in tests/test_fault.cpp).
///
/// Lifetime: the injector shares its counter state with the filter it
/// installs on the network (the network's std::function co-owns it), so
/// destroying the injector before — or during — the run is safe; the plan
/// keeps acting, only the counters become unobservable.

#include <cstdint>
#include <memory>
#include <optional>

#include "net/network.hpp"
#include "rng/rng.hpp"

namespace dknn {

/// Declarative fault plan compiled into a Network fault filter.
struct FaultPlan {
  /// Probability of dropping any given message.
  double drop_probability = 0.0;
  /// Probability of delaying a message that survived the drop stage.
  double delay_probability = 0.0;
  /// How late a delayed message enters its link (rounds; ≥ 1 to matter).
  std::uint64_t delay_rounds = 1;
  /// Probability of duplicating a message that survived drop and delay.
  double duplicate_probability = 0.0;
  /// If set, only messages with this tag are eligible for faults.
  std::optional<Tag> only_tag;
  /// If set, only messages from this machine are eligible.
  std::optional<MachineId> only_src;
  /// Fault eligibility starts at this round (inclusive).
  std::uint64_t from_round = 0;
  /// Maximum number of messages to drop (0 = unlimited; delays and
  /// duplicates are not capped by this).
  std::uint64_t max_drops = 0;
};

/// Installs the plan on the network; returns a counter handle that reports
/// how many messages were dropped / delayed / duplicated.  The network
/// co-owns the filter state, so the injector may be destroyed before the
/// run without dangling (regression-tested).
class FaultInjector {
 public:
  FaultInjector(Network& network, FaultPlan plan, std::uint64_t seed);

  [[nodiscard]] std::uint64_t drops() const { return shared_->drops; }
  [[nodiscard]] std::uint64_t delays() const { return shared_->delays; }
  [[nodiscard]] std::uint64_t duplicates() const { return shared_->duplicates; }

 private:
  /// Filter state, co-owned by the network's installed std::function.
  struct Shared {
    FaultPlan plan;
    Rng rng;
    std::uint64_t drops = 0;
    std::uint64_t delays = 0;
    std::uint64_t duplicates = 0;

    Shared(FaultPlan p, std::uint64_t seed) : plan(p), rng(seed) {}
  };

  std::shared_ptr<Shared> shared_;
};

}  // namespace dknn
