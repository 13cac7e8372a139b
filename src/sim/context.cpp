#include "sim/context.hpp"

#include <algorithm>

namespace dknn {

void Ctx::send(MachineId dst, Tag tag, Bytes payload) {
  Envelope env;
  env.src = id_;
  env.dst = dst;
  env.tag = tag;
  env.payload = std::move(payload);
  outbox_.push_back(std::move(env));
}

template <typename Match>
std::optional<Envelope> Ctx::take_first(Match match) {
  for (std::size_t i = mailbox_head_; i < mailbox_.size(); ++i) {
    Envelope& slot = mailbox_[i];
    if (slot.src == kNoMachine || !match(slot)) continue;
    Envelope env = std::move(slot);
    slot.src = kNoMachine;
    if (--mailbox_live_ == 0) {
      mailbox_.clear();
      mailbox_head_ = 0;
    }
    while (mailbox_head_ < mailbox_.size() && mailbox_[mailbox_head_].src == kNoMachine) {
      ++mailbox_head_;
    }
    return env;
  }
  return std::nullopt;
}

std::optional<Envelope> Ctx::try_take(Tag tag) {
  return take_first([tag](const Envelope& env) { return env.tag == tag; });
}

std::optional<Envelope> Ctx::try_take_any(std::span<const Tag> tags) {
  return take_first([tags](const Envelope& env) {
    return std::find(tags.begin(), tags.end(), env.tag) != tags.end();
  });
}

std::optional<Envelope> Ctx::try_take_from(MachineId src, Tag tag) {
  return take_first([src, tag](const Envelope& env) { return env.tag == tag && env.src == src; });
}

void Ctx::engine_deliver(std::vector<Envelope>& delivered) {
  if (last_seq_.empty() && !delivered.empty()) last_seq_.assign(world_, ~std::uint64_t{0});
  for (auto& env : delivered) {
    // At-most-once: drop a network-level duplicate (the same seq as the
    // last message from its source) so a mail-parked machine is only woken
    // by genuinely new messages.
    if (last_seq_[env.src] == env.seq) continue;
    last_seq_[env.src] = env.seq;
    mail_arrived_ = true;
    mailbox_.push_back(std::move(env));
    ++mailbox_live_;
  }
  delivered.clear();
}

}  // namespace dknn
