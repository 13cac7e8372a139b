#include "net/network.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace dknn {

Network::Network(NetworkConfig config) : config_(config) {
  DKNN_REQUIRE(config_.world_size >= 1, "network needs at least one machine");
  DKNN_REQUIRE(config_.policy == BandwidthPolicy::Unlimited || config_.bits_per_round > 0,
               "bandwidth-limited policies need positive bits_per_round");
  const std::size_t k = config_.world_size;
  links_.resize(k * k);
  mailboxes_.resize(k);
  busy_sources_.resize(k);
  send_seq_.assign(k, 0);
}

std::size_t Network::link_index(MachineId src, MachineId dst) const {
  return static_cast<std::size_t>(src) * config_.world_size + dst;
}

void Network::send(Envelope env) {
  DKNN_REQUIRE(env.src < config_.world_size, "send: bad source machine");
  DKNN_REQUIRE(env.dst < config_.world_size, "send: bad destination machine");
  DKNN_REQUIRE(env.src != env.dst, "send: the k-machine model has no self-links");

  env.sent_round = current_round_;
  env.seq = send_seq_[env.src]++;

  FaultDecision decision;
  if (filter_) decision = filter_(env);
  if (decision.action == FaultAction::Drop) return;  // dropped by fault injection

  if (decision.action == FaultAction::Delay && decision.delay_rounds > 0) {
    // Held back: the message enters its link at the end of round
    // sent_round + delay_rounds, exactly as if sent that much later (its
    // stamped sent_round is untouched — receivers can observe the lag).
    // It still counts as sent now, and in_flight() sees it (deadlock
    // detection must not fire while a wake-up is merely late).
    stats_.on_send(env);
    delayed_.push_back(Delayed{std::move(env), current_round_ + decision.delay_rounds});
    return;
  }

  stats_.on_send(env);
  if (decision.action == FaultAction::Duplicate) {
    // A spurious network-level duplicate: same seq, queued right behind
    // the original on the same FIFO (both copies count as traffic).  Links
    // only append, so the copy is the next message its receiver gets from
    // this sender — the receiver's Ctx relies on that to suppress it.
    Envelope copy = env;
    stats_.on_send(copy);
    enqueue(std::move(env));
    enqueue(std::move(copy));
    return;
  }
  enqueue(std::move(env));
}

void Network::enqueue(Envelope env) {
  if (config_.policy == BandwidthPolicy::Strict) {
    DKNN_REQUIRE(env.payload_bits() <= config_.bits_per_round,
                 "Strict bandwidth: message exceeds B bits");
    auto& link = links_[link_index(env.src, env.dst)];
    DKNN_REQUIRE(link.bits_this_round + env.payload_bits() <= config_.bits_per_round,
                 "Strict bandwidth: link already saturated this round");
    link.bits_this_round += env.payload_bits();
  }

  ++in_flight_;
  auto& link = links_[link_index(env.src, env.dst)];
  if (link.queue.empty()) busy_sources_[env.dst].push_back(env.src);
  const std::uint64_t bits = std::max<std::uint64_t>(env.payload_bits(), 1);  // empty msg = 1 bit
  link.queue.push_back(InTransit{std::move(env), bits});
}

void Network::end_round(std::uint64_t round) {
  // Release the delay stage first: a message delayed to this round joins
  // its link before transmission, so it behaves exactly like a fresh send
  // from this round onward (FIFO order behind anything already queued).
  if (!delayed_.empty()) {
    std::vector<Delayed> still_held;
    still_held.reserve(delayed_.size());
    for (Delayed& held : delayed_) {
      if (held.release_round <= round) {
        enqueue(std::move(held.env));
      } else {
        still_held.push_back(std::move(held));
      }
    }
    delayed_ = std::move(still_held);
  }
  const bool unlimited = config_.policy == BandwidthPolicy::Unlimited;
  constexpr std::uint64_t kInfinite = ~std::uint64_t{0};
  for (MachineId dst = 0; dst < config_.world_size; ++dst) {
    auto& busy = busy_sources_[dst];
    if (busy.empty()) continue;
    std::sort(busy.begin(), busy.end());  // sends may arrive in any order

    // Aggregate receive capacity of this destination for the round (the
    // "one NIC" model); kInfinite = the pure k-machine model.
    std::uint64_t ingress = (unlimited || config_.ingress_bits_per_round == 0)
                                ? kInfinite
                                : config_.ingress_bits_per_round;

    // Rotate the drain order each round (deterministically) so a saturated
    // NIC serves every sender fairly instead of letting low ids starve the
    // rest.  Only links with queued traffic are visited: O(active links).
    const std::size_t offset = static_cast<std::size_t>(round) % busy.size();
    for (std::size_t step = 0; step < busy.size(); ++step) {
      const MachineId src = busy[(step + offset) % busy.size()];
      auto& link = links_[link_index(src, dst)];
      link.bits_this_round = 0;
      std::uint64_t budget = unlimited ? kInfinite : std::min(config_.bits_per_round, ingress);
      while (link.head < link.queue.size() && budget > 0) {
        InTransit& head = link.queue[link.head];
        const std::uint64_t sent = std::min(budget, head.bits_remaining);
        head.bits_remaining -= sent;
        if (budget != kInfinite) budget -= sent;
        if (ingress != kInfinite) ingress -= sent;
        if (head.bits_remaining == 0) {
          stats_.on_deliver(head.env, round + 1);
          mailboxes_[dst].push_back(std::move(head.env));
          ++link.head;
          --in_flight_;
        } else {
          break;  // link budget exhausted mid-message
        }
      }
      if (2 * link.head >= link.queue.size()) {  // compact; clears a drained link
        link.queue.erase(link.queue.begin(), link.queue.begin() + link.head);
        link.head = 0;
      }
    }
    // Forget the links this round drained (the rest stay sorted).
    std::erase_if(busy, [&](MachineId src) { return links_[link_index(src, dst)].queue.empty(); });
  }
}

std::vector<Envelope> Network::collect_delivered(MachineId dst) {
  DKNN_REQUIRE(dst < config_.world_size, "collect_delivered: bad machine");
  std::vector<Envelope> out;
  out.swap(mailboxes_[dst]);
  return out;
}

}  // namespace dknn
