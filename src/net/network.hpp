#pragma once
/// \file network.hpp
/// \brief The k-machine model's communication substrate.
///
/// A complete graph of bidirectional point-to-point links; each *direction*
/// of each link carries `bits_per_round` bits per synchronous round
/// (paper §1.1: "Each link is assumed to have a bandwidth of B bits per
/// round", default B = Θ(log n)).
///
/// Semantics per round r:
///   1. machines call send() while executing round r;
///   2. end_round(r): every directed link transmits up to B bits from its
///      FIFO of pending messages; a message is *delivered* (appears in the
///      destination mailbox) at the start of the first round after the one
///      in which its last bit was transmitted.
///
/// Under `Unlimited` every message arrives in the next round no matter its
/// size (classic synchronous message passing, useful for counting abstract
/// messages).  Under `Chunked` large messages take ceil(bits / B) rounds —
/// this is what makes the paper's simple baseline cost Θ(ℓ) rounds emerge
/// from its Θ(ℓ log n)-bit transfer instead of being hard-coded.  `Strict`
/// additionally *requires* algorithms to respect B within a single round
/// and throws otherwise (used by tests to certify Algorithm 1/2 messages
/// fit in O(log n)-bit links).

#include <cstdint>
#include <functional>
#include <vector>

#include "net/traffic.hpp"
#include "net/types.hpp"

namespace dknn {

enum class BandwidthPolicy : std::uint8_t {
  Unlimited,  ///< deliver everything next round; count traffic only
  Chunked,    ///< B bits per directed link per round; big messages straggle
  Strict,     ///< like Chunked but sending > B bits in one round throws
};

struct NetworkConfig {
  std::uint32_t world_size = 0;
  BandwidthPolicy policy = BandwidthPolicy::Unlimited;
  /// Link capacity in bits per round per direction (B in the paper).
  std::uint64_t bits_per_round = 64;
  /// Optional per-destination *aggregate* receive capacity per round
  /// (0 = unlimited).  The k-machine model gives every node k−1 independent
  /// B-bit links; a real cluster funnels them through one NIC.  Setting
  /// this to ~B reproduces the leader-ingress bottleneck that dominates the
  /// paper's measured Figure 2 (see DESIGN.md §2).  Only meaningful under
  /// Chunked policy.
  std::uint64_t ingress_bits_per_round = 0;
};

/// What a fault filter decided for one message.
enum class FaultAction : std::uint8_t {
  Deliver,    ///< normal transmission
  Drop,       ///< vanish silently (not counted as sent)
  Delay,      ///< enter the link `delay_rounds` rounds late
  Duplicate,  ///< transmit twice back to back (same seq — a true duplicate)
};

struct FaultDecision {
  FaultAction action = FaultAction::Deliver;
  std::uint64_t delay_rounds = 0;  ///< Delay only; 0 behaves like Deliver
};

/// Optional interception hook (fault injection, tracing): per message,
/// deliver / drop / delay / duplicate.  The network owns the installed
/// std::function (shared ownership of any state it captures) — installers
/// may be destroyed before or during the run.
using FaultFilter = std::function<FaultDecision(const Envelope&)>;

class Network {
public:
  explicit Network(NetworkConfig config);

  /// Enqueues a message during the current round. Self-sends are forbidden
  /// (the model has no self-links; local state needs no messages).
  void send(Envelope env);

  /// Advances the link model at the end of round `round`; messages whose
  /// last bit was transmitted become deliverable at round + 1.
  void end_round(std::uint64_t round);

  /// Drains messages deliverable to `dst`.  Order is deterministic: by
  /// completion round, then by the round's rotated sender order, then
  /// per-sender FIFO.
  [[nodiscard]] std::vector<Envelope> collect_delivered(MachineId dst);

  /// The same messages in place: the engine moves them out and clears the
  /// buffer, which keeps its capacity for the next round.
  [[nodiscard]] std::vector<Envelope>& delivered(MachineId dst) { return mailboxes_[dst]; }

  /// True when any message is still queued, held by the delay stage, or in
  /// transit (delayed messages count: they will wake a receiver later, so
  /// the engine's deadlock detector must not fire while they are held).
  [[nodiscard]] bool in_flight() const { return in_flight_ != 0 || !delayed_.empty(); }

  [[nodiscard]] const TrafficStats& stats() const { return stats_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  void set_fault_filter(FaultFilter filter) { filter_ = std::move(filter); }

  /// Round at which the current send() calls are stamped; set by the engine.
  void set_current_round(std::uint64_t round) { current_round_ = round; }

private:
  struct InTransit {
    Envelope env;
    std::uint64_t bits_remaining = 0;
  };
  /// One direction of one link.  Its FIFO is queue[head, size), drained
  /// from `head` and compacted once at least half is drained, which clears
  /// an emptied link.  An unused link allocates nothing; a busy one reuses
  /// its buffer.
  struct DirectedLink {
    std::vector<InTransit> queue;
    std::size_t head = 0;
    std::uint64_t bits_this_round = 0;  ///< Strict-mode accounting
  };

  [[nodiscard]] std::size_t link_index(MachineId src, MachineId dst) const;

  /// Places a filtered-in message onto its directed link (Strict
  /// accounting, in-flight count, busy-source tracking).
  void enqueue(Envelope env);

  /// A message held by the delay stage until `release_round` ends.
  struct Delayed {
    Envelope env;
    std::uint64_t release_round = 0;
  };

  NetworkConfig config_;
  /// k*k directed links (diagonal unused): one allocation, as an unused
  /// DirectedLink owns no memory.
  std::vector<DirectedLink> links_;
  std::vector<std::vector<Envelope>> mailboxes_;    // per destination, ready to deliver
  /// Sources with queued traffic, per destination (kept sorted by end_round)
  /// so a round costs O(active links), not O(k²).
  std::vector<std::vector<MachineId>> busy_sources_;
  std::vector<Delayed> delayed_;                    // fault-injected late messages
  TrafficStats stats_;
  FaultFilter filter_;
  std::uint64_t current_round_ = 0;
  std::uint64_t in_flight_ = 0;
  std::vector<std::uint64_t> send_seq_;             // per-sender sequence numbers
};

}  // namespace dknn
