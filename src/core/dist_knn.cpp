#include "core/dist_knn.hpp"

#include <algorithm>
#include <cmath>

#include "data/validate.hpp"
#include "rng/sampling.hpp"
#include "seq/select.hpp"
#include "sim/collectives.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

/// Header preceding a machine's sample messages: how many samples follow
/// and how many keys survived the local-ℓ cap (for the global target).
struct SampleHeader {
  std::uint8_t attempt = 0;
  std::uint64_t samples = 0;
  std::uint64_t capped_count = 0;  ///< |S_i| = min(ℓ, n_i)
};

void encode(Writer& w, const SampleHeader& v) {
  w.put_u8(v.attempt);
  w.put_varint(v.samples);
  w.put_varint(v.capped_count);
}
SampleHeader decode_impl(Reader& r, std::type_identity<SampleHeader>) {
  SampleHeader v;
  v.attempt = r.get_u8();
  v.samples = r.get_varint();
  v.capped_count = r.get_varint();
  return v;
}

/// One sampled key (kept one-key-per-message so message complexity matches
/// the paper's O(k log ℓ) accounting of O(log n)-bit messages).
struct SampleMsg {
  std::uint8_t attempt = 0;
  Key key{};
};

void encode(Writer& w, const SampleMsg& v) {
  w.put_u8(v.attempt);
  encode(w, v.key);
}
SampleMsg decode_impl(Reader& r, std::type_identity<SampleMsg>) {
  SampleMsg v;
  v.attempt = r.get_u8();
  v.key = decode<Key>(r);
  return v;
}

/// Leader's broadcast after evaluating the pruning radius.
struct Decision {
  std::uint8_t attempt = 0;
  bool proceed = false;    ///< false = retry with fresh samples
  bool prune_ok = true;    ///< proceed with a known-lossy prune (Monte Carlo)
  std::uint64_t target = 0;      ///< ℓ clamped to the total capped count
  std::uint64_t candidates = 0;  ///< Σ surviving candidates
};

void encode(Writer& w, const Decision& v) {
  w.put_u8(v.attempt);
  w.put_bool(v.proceed);
  w.put_bool(v.prune_ok);
  w.put_varint(v.target);
  w.put_varint(v.candidates);
}
Decision decode_impl(Reader& r, std::type_identity<Decision>) {
  Decision v;
  v.attempt = r.get_u8();
  v.proceed = r.get_bool();
  v.prune_ok = r.get_bool();
  v.target = r.get_varint();
  v.candidates = r.get_varint();
  return v;
}

/// Radius broadcast.  `none` means "no bound": every capped key survives (no
/// samples existed, or the retry budget was exhausted and we fall back to
/// the always-correct path).  `finish` ends the query at the bound: the
/// leader's pool was the union of every capped list, `key` is the exact
/// min(ℓ, Σ|S_i|)-th key (`none` iff that count is 0, when every capped
/// list is empty) and `candidates` the number of keys at or below it.
struct Radius {
  std::uint8_t attempt = 0;
  bool none = false;
  bool finish = false;
  Key key{};
  std::uint64_t candidates = 0;  ///< finish only
};

// A pruning radius keeps the wire form [attempt][none as 0/1][key]; bit 1 of
// the flag byte marks a finishing one, which alone appends its count.
void encode(Writer& w, const Radius& v) {
  w.put_u8(v.attempt);
  w.put_u8(static_cast<std::uint8_t>((v.none ? 1 : 0) | (v.finish ? 2 : 0)));
  encode(w, v.key);
  if (v.finish) w.put_varint(v.candidates);
}
Radius decode_impl(Reader& r, std::type_identity<Radius>) {
  Radius v;
  v.attempt = r.get_u8();
  const std::uint8_t flags = r.get_u8();
  v.none = (flags & 1) != 0;
  v.finish = (flags & 2) != 0;
  v.key = decode<Key>(r);
  if (v.finish) v.candidates = r.get_varint();
  return v;
}

bool coeff_ok(double coeff) { return std::isfinite(coeff) && coeff >= 0.0; }

/// ⌈coeff · ln max(ℓ, 2)⌉, at least 1.  Both callers clamp the count to a
/// list or pool size, so a huge coefficient saturates instead of
/// overflowing the integer cast.
std::uint64_t log_ell_count(double coeff, std::uint64_t ell, const char* rejected) {
  if (!coeff_ok(coeff)) throw PreconditionError(rejected);
  const double l = static_cast<double>(std::max<std::uint64_t>(ell, 2));
  const double count = std::ceil(coeff * std::log(l));
  constexpr double kSaturate = 0x1p63;
  return count >= kSaturate ? std::uint64_t{1} << 63
                            : std::max<std::uint64_t>(1, static_cast<std::uint64_t>(count));
}

constexpr const char* kLeaderText = "dknn: KnnConfig::leader must be less than the machine count";
constexpr const char* kSampleCoeffText = "dknn: KnnConfig::sample_coeff must be finite and >= 0";
constexpr const char* kRankCoeffText = "dknn: KnnConfig::rank_coeff must be finite and >= 0";

}  // namespace

const char* knn_config_error(const KnnConfig& config, std::uint32_t machines) {
  if (config.leader >= machines) return kLeaderText;
  if (!coeff_ok(config.sample_coeff)) return kSampleCoeffText;
  if (!coeff_ok(config.rank_coeff)) return kRankCoeffText;
  return nullptr;
}

std::uint64_t knn_sample_count(std::uint64_t ell, const KnnConfig& config) {
  return log_ell_count(config.sample_coeff, ell, kSampleCoeffText);
}

std::uint64_t knn_radius_rank(std::uint64_t ell, const KnnConfig& config) {
  return log_ell_count(config.rank_coeff, ell, kRankCoeffText);
}

Task<KnnLocal> dist_knn(Ctx& ctx, std::vector<Key> local_scored, std::uint64_t ell,
                        KnnConfig config) {
  if (const char* error = knn_config_error(config, ctx.world())) throw PreconditionError(error);
  const std::uint32_t k = ctx.world();
  const bool is_leader = ctx.id() == config.leader;

  // Step 2: keep only the local ℓ best ("a single machine can hold at most
  // all the ℓ-NN points").  Heap-based: O(n_i log ℓ) local work and the
  // result is already sorted for the sampling/pruning steps below.
  std::vector<Key> capped =
      top_ell_smallest(std::span<const Key>(local_scored), static_cast<std::size_t>(ell));
  local_scored.clear();
  local_scored.shrink_to_fit();
  DKNN_REQUIRE(std::adjacent_find(capped.begin(), capped.end()) == capped.end(),
               "scored keys must be distinct (use unique point ids)");

  const std::uint64_t want_samples = knn_sample_count(ell, config);

  KnnLocal out;
  for (std::uint32_t attempt = 0;; ++attempt) {
    DKNN_ASSERT(attempt <= config.max_retries, "retry loop exceeded its budget");
    const auto attempt_tag = static_cast<std::uint8_t>(attempt & 0xFF);
    // After the retry budget, fall back to "no pruning": always correct,
    // just a larger instance for Algorithm 1 (at most kℓ keys).
    const bool prune_this_attempt = attempt < config.max_retries;

    // --- Steps 3-4: sample and ship to the leader -------------------------
    const std::uint64_t samples_here =
        prune_this_attempt ? std::min<std::uint64_t>(want_samples, capped.size()) : 0;
    std::vector<Key> my_samples;
    if (samples_here > 0) {
      my_samples = sample_without_replacement(std::span<const Key>(capped),
                                              static_cast<std::size_t>(samples_here), ctx.rng());
    }

    Radius radius;
    std::uint64_t total_capped = capped.size();  // leader only: Σ|S_i|
    if (is_leader) {
      std::vector<Key> pool = std::move(my_samples);
      // Whether every machine sampled its whole capped list, as each does
      // when min(ℓ, n_i) <= ⌈sample_coeff · ln ℓ⌉ (every ℓ <= 47 at the
      // default coefficient): then the pool is their union and holds the
      // exact answer.
      bool pool_is_union = config.finish_on_full_sample && prune_this_attempt &&
                           samples_here == capped.size();
      if (k > 1) {
        auto headers = co_await recv_n(ctx, tags::kKnnSampleHeader, k - 1);
        std::uint64_t expected = 0;
        for (const auto& env : headers) {
          const auto header = from_bytes<SampleHeader>(env.payload);
          DKNN_ASSERT(header.attempt == attempt_tag, "stale sample header");
          expected += header.samples;
          total_capped += header.capped_count;
          pool_is_union = pool_is_union && header.samples == header.capped_count;
        }
        auto sample_msgs =
            co_await recv_n(ctx, tags::kKnnSample, static_cast<std::size_t>(expected));
        for (const auto& env : sample_msgs) {
          const auto msg = from_bytes<SampleMsg>(env.payload);
          DKNN_ASSERT(msg.attempt == attempt_tag, "stale sample");
          pool.push_back(msg.key);
        }
      }

      if (pool_is_union) {
        // --- Finish: the exact min(ℓ, Σ|S_i|)-th key bounds the answer ----
        std::sort(pool.begin(), pool.end());
        const std::uint64_t target = std::min<std::uint64_t>(ell, total_capped);
        radius.finish = true;
        radius.none = target == 0;
        if (!radius.none) radius.key = pool[static_cast<std::size_t>(target - 1)];
        radius.candidates = target;  // keys are distinct, so exactly target sit <= key
      } else if (pool.empty() || !prune_this_attempt) {
        radius.none = true;
      } else {
        // --- Step 5: radius = sample at rank 21·ln ℓ ------------------------
        std::sort(pool.begin(), pool.end());
        const std::uint64_t rank = std::min<std::uint64_t>(knn_radius_rank(ell, config),
                                                           pool.size());  // 1-indexed
        radius.key = pool[static_cast<std::size_t>(rank - 1)];
      }
      radius.attempt = attempt_tag;
      for (MachineId m = 0; m < k; ++m) {
        if (m != config.leader) ctx.send_value(m, tags::kKnnRadius, radius);
      }
    } else {
      SampleHeader header;
      header.attempt = attempt_tag;
      header.samples = samples_here;
      header.capped_count = capped.size();
      ctx.send_value(config.leader, tags::kKnnSampleHeader, header);
      for (const Key& key : my_samples) {
        ctx.send_value(config.leader, tags::kKnnSample, SampleMsg{attempt_tag, key});
      }
      radius = co_await recv_value_from<Radius>(ctx, config.leader, tags::kKnnRadius);
      DKNN_ASSERT(radius.attempt == attempt_tag, "stale radius");
    }

    const auto end = radius.none ? capped.end()
                                 : std::upper_bound(capped.begin(), capped.end(), radius.key);
    if (radius.finish) {
      out.selected.assign(capped.begin(), end);
      out.candidates = radius.candidates;
      co_return out;
    }

    // --- Steps 6-7: count survivors, decide ----------------------------------
    const auto my_survivors = static_cast<std::uint64_t>(end - capped.begin());
    Decision decision;
    if (is_leader) {
      std::uint64_t survivors = my_survivors;
      if (k > 1) {
        auto counts = co_await recv_n(ctx, tags::kKnnCount, k - 1);
        for (const auto& env : counts) survivors += from_bytes<std::uint64_t>(env.payload);
      }
      decision.attempt = attempt_tag;
      decision.target = std::min<std::uint64_t>(ell, total_capped);
      decision.candidates = survivors;
      if (survivors >= decision.target) {
        decision.proceed = true;
        decision.prune_ok = true;
      } else if (config.las_vegas) {
        decision.proceed = false;  // resample (Lemma 2.3 failed low)
      } else {
        decision.proceed = true;   // Monte Carlo: press on, flag the loss
        decision.prune_ok = false;
      }
      for (MachineId m = 0; m < k; ++m) {
        if (m != config.leader) ctx.send_value(m, tags::kKnnDecision, decision);
      }
    } else {
      ctx.send_value(config.leader, tags::kKnnCount, my_survivors);
      decision = co_await recv_value_from<Decision>(ctx, config.leader, tags::kKnnDecision);
      DKNN_ASSERT(decision.attempt == attempt_tag, "stale decision");
    }
    if (!decision.proceed) {
      ++out.attempts;
      continue;
    }
    out.prune_ok = decision.prune_ok;
    out.candidates = decision.candidates;

    std::vector<Key> survivors_local(capped.begin(), end);
    SelectLocal sel = co_await dist_select(ctx, std::move(survivors_local), decision.target,
                                           SelectConfig{config.leader});
    out.selected = std::move(sel.selected);
    out.select_iterations = sel.iterations;
    co_return out;
  }
}

}  // namespace dknn
