#pragma once
/// \file min_id.hpp
/// \brief Trivial minimum-ID leader election.
///
/// The paper (§2.1): "Since the machines have unique IDs, the leader (say,
/// the minimum ID machine) can be elected in a constant number of rounds".
/// This is one all-to-all exchange of k(k−1) messages, which the engine
/// reports as 2 rounds when it runs alone (the superstep that sends the
/// announcements and the one that reads them) — the simple, message-heavy
/// contrast to the sublinear algorithm of [9] (see sublinear.hpp).

#include "election/election.hpp"
#include "sim/context.hpp"
#include "sim/task.hpp"

namespace dknn {

/// Every machine announces its ID to everyone; all pick the minimum.
/// One exchange of k(k−1) messages (2 engine rounds); deterministic.
[[nodiscard]] Task<ElectionOutcome> elect_min_id(Ctx& ctx);

}  // namespace dknn
