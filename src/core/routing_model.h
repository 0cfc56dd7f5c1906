// The routing model: what the orchestrator believes about UG routing.
//
// §3.1: "we make assumptions about UG ingresses and, in cases with
// uncertainty, assume all policy-compliant ingresses are equally likely. We
// then learn from incorrect assumptions over time."
//
// The model holds, per UG:
//  - learned pairwise ingress preferences: when a prefix was advertised via a
//    candidate set and the UG was observed entering via ingress i*, then i*
//    is preferred over every other candidate. Future expectations exclude
//    candidates dominated by an active preferred ingress (the paper's
//    Tokyo-vs-Miami example).
//  - measured RTT corrections: once a UG was actually observed on an
//    ingress, the measured RTT replaces the heuristic estimate.
//
// ComputeExpectation evaluates Eq. 2's inner expectation for one UG and one
// prefix: candidates = compliant options ∩ advertised sessions, minus
// preference-dominated ingresses, minus ingresses more than D_reuse km
// farther than the closest candidate PoP. It reports the full benefit range
// the evaluation uses (Fig. 14): lower/upper bound RTTs, the unweighted mean
// (Eq. 2's equal-likelihood expectation), and the inflation-probability
// weighted estimate (§5.1.2 — "inflated paths to far-away PoPs are less
// likely", weights decay with excess distance).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/advertisement.h"
#include "core/problem.h"

namespace painter::core {

// Thread-safety contract: the const methods (IsDominated, Prefers, HasWins,
// HasPreferences, MeasuredRtt, PreferenceCount) and the ComputeExpectation*
// helpers below only read shared state. The helpers reuse thread_local
// scratch, so they stay safe to call from any thread without a lock even
// though the library itself calls them from one. The Observe* mutators
// require exclusive access (they run in the Absorb phase of the learning
// loop, never during an evaluation).
class RoutingModel {
 public:
  // Ingress ids the model can learn preferences over are < kMaxSessions: a
  // learned pair packs (winner, loser) into one 32-bit key. The orchestrator
  // rejects instances with more sessions than this.
  static constexpr std::uint32_t kMaxSessions = 1u << 16;

  explicit RoutingModel(std::size_t ug_count);

  // Records an observed routing choice: `ug` entered via `chosen` while all
  // of `candidates` (compliant sessions the prefix was advertised on) were
  // available. Every non-chosen candidate becomes dominated by `chosen`.
  // Returns true when any pair was learned or retracted — i.e. the UG's
  // expectations may now evaluate differently (the orchestrator's cross-call
  // seed cache keys its dirtiness off this). Throws std::out_of_range, before
  // changing anything, when `chosen` or a candidate is ≥ kMaxSessions.
  bool ObservePreference(std::uint32_t ug, util::PeeringId chosen,
                         std::span<const util::PeeringId> candidates);

  // Records a measured RTT for a (ug, ingress) pair, correcting estimates.
  // Returns true when the stored value changed (first measurement, or a move
  // larger than `epsilon_ms` since last time — smaller moves are treated as
  // measurement noise and leave the stored value untouched).
  bool ObserveLatency(std::uint32_t ug, util::PeeringId ingress, double rtt_ms,
                      double epsilon_ms = 0.0);

  // True if some *other* candidate in `active` is known-preferred over
  // `candidate` for this UG (then `candidate` has zero likelihood, §3.1).
  [[nodiscard]] bool IsDominated(std::uint32_t ug, util::PeeringId candidate,
                                 std::span<const util::PeeringId> active) const;

  // True if `ug` is known to prefer `winner` over `loser`: one directed pair,
  // one binary search. The orchestrator's incremental engine checks a new
  // option against each candidate of the prefix under construction in both
  // directions, which is O(k log P) per probe where IsDominated over the
  // whole list is O(k² log P). False for an id ≥ kMaxSessions.
  [[nodiscard]] bool Prefers(std::uint32_t ug, util::PeeringId winner,
                             util::PeeringId loser) const {
    if ((winner.value() | loser.value()) >= kMaxSessions) return false;
    const auto& set = prefers_[ug];
    return std::binary_search(set.begin(), set.end(), PairKey(winner, loser));
  }

  // True if `ug` is known to prefer `winner` over some ingress. Pair keys
  // sort by winner first, so this is one lower_bound; the orchestrator uses
  // it to skip the Prefers searches of ingresses that never won. False for
  // an id ≥ kMaxSessions.
  [[nodiscard]] bool HasWins(std::uint32_t ug, util::PeeringId winner) const {
    if (winner.value() >= kMaxSessions) return false;
    const auto& set = prefers_[ug];
    const auto it = std::lower_bound(set.begin(), set.end(),
                                     PairKey(winner, util::PeeringId{0}));
    return it != set.end() && (*it >> 16) == winner.value();
  }

  // True once any pairwise preference has been observed for `ug`. The
  // orchestrator's incremental engine keys off this: with no preferences,
  // the dominance exclusion can never fire for the UG.
  [[nodiscard]] bool HasPreferences(std::uint32_t ug) const {
    return !prefers_[ug].empty();
  }

  [[nodiscard]] std::optional<double> MeasuredRtt(std::uint32_t ug,
                                                  util::PeeringId ingress) const;

  // Total learned pairs, maintained as a running count by ObservePreference
  // (this is polled per learning iteration for a gauge; walking every UG's
  // list there would be O(UGs) per poll).
  [[nodiscard]] std::size_t PreferenceCount() const {
    return preference_count_;
  }

 private:
  // Both ids < kMaxSessions.
  static std::uint32_t PairKey(util::PeeringId winner, util::PeeringId loser) {
    return (winner.value() << 16) | loser.value();
  }

  // ug -> sorted flat list of (winner << 16 | loser) pair keys. A sorted
  // vector beats a hash set here: the dominance probe (Prefers, hot in the
  // greedy loop's Eq. 2 probes) is a binary search over a contiguous array,
  // and mutation happens only in the serial Absorb phase. Four bytes a pair:
  // the learning loops hold hundreds of thousands of them.
  std::vector<std::vector<std::uint32_t>> prefers_;
  // ug -> ingress -> measured RTT.
  std::vector<std::unordered_map<std::uint32_t, double>> measured_;
  std::size_t preference_count_ = 0;
};

struct ExpectationParams {
  // Minimum reuse distance D_reuse (km): candidates whose PoP is more than
  // this much farther than the closest candidate PoP are assumed unused.
  double d_reuse_km = 3000.0;
  // Decay constant for the inflation-likelihood weights of the "estimated"
  // range: weight ∝ exp(-excess_km / this).
  double inflation_decay_km = 4000.0;
};

struct PrefixExpectation {
  bool usable = false;     // UG has at least one surviving candidate
  double lower_rtt = 0.0;  // best case (min over candidates)
  double mean_rtt = 0.0;   // Eq. 2 equal-likelihood expectation
  double estimated_rtt = 0.0;  // inflation-probability weighted
  double upper_rtt = 0.0;  // worst case (max over candidates)
  std::size_t candidate_count = 0;
};

// Evaluates the expectation for `ug` of a prefix advertised via
// `advertised_sessions` (sorted by id). O(|options(ug)| + |advertised|).
[[nodiscard]] PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    const ExpectationParams& params);

// Same evaluation from an already-intersected candidate list (the UG's
// compliant options among the advertised sessions), O(|candidates|^2 log P)
// with learned preferences. This is the reference semantics: the naive
// greedy engine and the attributed path call it directly, and the
// incremental engine's per-UG surviving-set state (DESIGN.md §8) must match
// its mean bit for bit.
[[nodiscard]] PrefixExpectation ComputeExpectationFromCandidates(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const IngressOption* const> candidates,
    const ExpectationParams& params);

// A candidate ingress with the advertisement attributes it was announced
// under (core::SessionAttr projected onto the option).
struct AdvertisedOption {
  const IngressOption* opt = nullptr;
  std::uint8_t prepend = 0;
  bool lower_pref = false;
  bool no_export = false;
};

// Attributed Eq. 2 evaluation. Two model refinements on top of the
// equal-likelihood prior (both are priors the learning loop corrects):
//  - a kNoExportUp candidate is unreachable for UGs outside the session
//    peer's customer cone (IngressOption::in_peer_cone) and is dropped;
//  - candidates are tiered by (lower-pref, prepend) — the lexicographic
//    order BGP applies before hop count — and only the best tier present
//    survives, mirroring how the resolver's per-AS aggregation keys work.
// With all-default attributes this is bit-for-bit
// ComputeExpectationFromCandidates.
[[nodiscard]] PrefixExpectation ComputeExpectationAttributed(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const AdvertisedOption> candidates,
    const ExpectationParams& params);

// Attributed overload of ComputeExpectation: `attrs` parallels
// `advertised_sessions` (empty = all-default, identical to the legacy path).
[[nodiscard]] PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    std::span<const SessionAttr> attrs, const ExpectationParams& params);

}  // namespace painter::core
