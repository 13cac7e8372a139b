#pragma once
/// \file context.hpp
/// \brief Per-machine execution context: the API a machine program sees.
///
/// A `Ctx` is the machine's window onto the k-machine model: its identity,
/// its private random stream (paper §1.1: each machine has a private source
/// of random bits), a mailbox of delivered messages, and the round barrier.
/// Machine programs must not share state except through messages — the
/// thread-pool executor relies on this (and the sequential executor makes
/// violations reproducible).

#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/types.hpp"
#include "rng/rng.hpp"
#include "serial/codec.hpp"

namespace dknn {

class Engine;

/// Awaiter for `co_await ctx.round()`: parks the (innermost) coroutine and
/// returns control to the engine until the next superstep.
struct RoundBarrier;

/// Awaiter for `co_await ctx.mail_round()`: like RoundBarrier, but the
/// engine skips resuming the machine until a round in which at least one
/// new message was delivered to it.  Observationally equivalent for code
/// that only inspects the mailbox (all receive helpers), and turns long
/// bandwidth-limited waits from O(rounds) resumes into O(deliveries).
struct MailBarrier;

class Ctx {
public:
  Ctx(MachineId id, std::uint32_t world, Rng rng)
      : id_(id), world_(world), rng_(std::move(rng)) {}

  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;
  Ctx(Ctx&&) = default;
  Ctx& operator=(Ctx&&) = default;

  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] std::uint32_t world() const { return world_; }
  [[nodiscard]] std::uint64_t current_round() const { return round_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Queues a message for the end-of-round exchange.
  void send(MachineId dst, Tag tag, Bytes payload);

  /// Typed convenience: encodes `value` with the serial codec.
  template <typename T>
  void send_value(MachineId dst, Tag tag, const T& value) {
    send(dst, tag, to_bytes(value));
  }

  /// Removes and returns the first mailbox message with `tag`, if any.
  [[nodiscard]] std::optional<Envelope> try_take(Tag tag);

  /// Removes and returns the first mailbox message with `tag` from `src`.
  [[nodiscard]] std::optional<Envelope> try_take_from(MachineId src, Tag tag);

  /// Removes and returns the first mailbox message whose tag is in `tags`
  /// (arrival order decides among multiple matches).
  [[nodiscard]] std::optional<Envelope> try_take_any(std::span<const Tag> tags);

  /// Number of delivered messages not yet taken (diagnostics/tests).
  [[nodiscard]] std::size_t mailbox_size() const { return mailbox_live_; }

  /// Round barrier; `co_await ctx.round()` resumes at the next superstep.
  [[nodiscard]] RoundBarrier round();

  /// Mail barrier; `co_await ctx.mail_round()` resumes at the next
  /// superstep in which new mail was delivered to this machine.
  [[nodiscard]] MailBarrier mail_round();

  // --- engine-side interface (not for machine programs) ---------------------
  /// Moves `delivered` into the mailbox and clears it (keeping its capacity).
  void engine_deliver(std::vector<Envelope>& delivered);
  /// This round's sends; the engine hands them to the network and clears it.
  [[nodiscard]] std::vector<Envelope>& engine_outbox() { return outbox_; }
  void engine_set_round(std::uint64_t round) { round_ = round; }
  void engine_set_resume(std::coroutine_handle<> h, bool wait_for_mail = false) {
    resume_point_ = h;
    mail_wait_ = wait_for_mail;
  }
  [[nodiscard]] std::coroutine_handle<> engine_take_resume() {
    auto h = resume_point_;
    resume_point_ = nullptr;
    mail_wait_ = false;
    mail_arrived_ = false;
    return h;
  }
  [[nodiscard]] bool engine_has_resume() const { return resume_point_ != nullptr; }
  /// True when the machine should run this superstep (not parked on mail,
  /// or mail has arrived since it parked).
  [[nodiscard]] bool engine_runnable() const {
    return resume_point_ != nullptr && (!mail_wait_ || mail_arrived_);
  }
  [[nodiscard]] bool engine_mail_parked() const { return mail_wait_; }

private:
  /// Takes the first live mailbox message satisfying `match`.
  template <typename Match>
  std::optional<Envelope> take_first(Match match);

  MachineId id_;
  std::uint32_t world_;
  Rng rng_;
  std::uint64_t round_ = 0;
  /// Delivered messages in arrival order.  A taken one stays in place,
  /// marked by src = kNoMachine and skipped by every scan, until all are
  /// taken and the vector is cleared, so out-of-order takes shift nothing.
  std::vector<Envelope> mailbox_;
  std::size_t mailbox_head_ = 0;  ///< every message before it is taken
  std::size_t mailbox_live_ = 0;  ///< messages not yet taken
  /// At-most-once delivery: the seq of the last message delivered from each
  /// source (empty until the first delivery).  A network-level duplicate
  /// (fault injection) is queued directly behind its original on the same
  /// link FIFO and links only append, so the copy is always the next
  /// message this machine gets from that source: it still burned link
  /// bandwidth in transit, but machine programs never observe it.  Delayed
  /// messages may arrive out of seq order, so a high-water mark would not do.
  std::vector<std::uint64_t> last_seq_;
  std::vector<Envelope> outbox_;
  std::coroutine_handle<> resume_point_ = nullptr;
  bool mail_wait_ = false;     ///< parked on a MailBarrier
  bool mail_arrived_ = false;  ///< delivery happened since parking
};

struct RoundBarrier {
  Ctx* ctx;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { ctx->engine_set_resume(h); }
  void await_resume() const noexcept {}
};

struct MailBarrier {
  Ctx* ctx;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept {
    ctx->engine_set_resume(h, /*wait_for_mail=*/true);
  }
  void await_resume() const noexcept {}
};

inline RoundBarrier Ctx::round() { return RoundBarrier{this}; }
inline MailBarrier Ctx::mail_round() { return MailBarrier{this}; }

}  // namespace dknn
