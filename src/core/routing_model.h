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
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/advertisement.h"
#include "core/problem.h"

namespace painter::core {

// Thread-safety contract: the const methods (IsDominated, Prefers, HasWins,
// HasPreferences, MeasuredRtt, PreferenceCount, FootprintBytes and the
// local-index forms) and the ComputeExpectation* helpers below only read
// shared state. The helpers reuse thread_local scratch, so they stay safe to
// call from any thread without a lock even though the library itself calls
// them from one. The Observe* mutators require exclusive access (they run in
// the Absorb phase of the learning loop, never during an evaluation).
class RoutingModel {
 public:
  // Ingress ids the model can learn about are < kMaxSessions: a UG's id
  // lookup packs (id, local index) into one 32-bit key. The orchestrator
  // rejects instances with more sessions than this.
  static constexpr std::uint32_t kMaxSessions = 1u << 16;
  // LocalIndex of an id the UG never observed.
  static constexpr std::uint32_t kUnobserved = 0xFFFFFFFFu;

  explicit RoutingModel(std::size_t ug_count);

  // Every id-based entry point below throws std::out_of_range for
  // ug >= ug_count.

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
  // measurement noise and leave the stored value untouched). Throws
  // std::out_of_range for an ingress ≥ kMaxSessions.
  bool ObserveLatency(std::uint32_t ug, util::PeeringId ingress, double rtt_ms,
                      double epsilon_ms = 0.0);

  // True if some *other* candidate in `active` is known-preferred over
  // `candidate` for this UG (then `candidate` has zero likelihood, §3.1).
  [[nodiscard]] bool IsDominated(std::uint32_t ug, util::PeeringId candidate,
                                 std::span<const util::PeeringId> active) const;

  // True if `ug` is known to prefer `winner` over `loser`: two id lookups
  // and one bit. False for an id ≥ kMaxSessions.
  [[nodiscard]] bool Prefers(std::uint32_t ug, util::PeeringId winner,
                             util::PeeringId loser) const {
    return PrefersLocal(ug, LocalIndex(ug, winner), LocalIndex(ug, loser));
  }

  // True if `ug` is known to prefer `winner` over some ingress. False for an
  // id ≥ kMaxSessions.
  [[nodiscard]] bool HasWins(std::uint32_t ug, util::PeeringId winner) const {
    return HasWinsLocal(ug, LocalIndex(ug, winner));
  }

  // True once any pairwise preference has been observed for `ug` (a later
  // observation can retract a pair only while adding its opposite, so this
  // never turns false again). The orchestrator's incremental engine keys off
  // this: with no preferences, the dominance exclusion can never fire for
  // the UG.
  [[nodiscard]] bool HasPreferences(std::uint32_t ug) const {
    return has_prefs_.at(ug) != 0;
  }

  [[nodiscard]] std::optional<double> MeasuredRtt(
      std::uint32_t ug, util::PeeringId ingress) const {
    return MeasuredRttLocal(ug, LocalIndex(ug, ingress));
  }

  // Total learned pairs, maintained as a running count by ObservePreference
  // (this is polled per learning iteration for a gauge; walking every UG's
  // rows there would be O(UGs) per poll).
  [[nodiscard]] std::size_t PreferenceCount() const {
    return preference_count_;
  }

  // Heap bytes the per-UG learned state holds (id keys, blocks and
  // records at their allocated capacity); 0 for a model that never observed
  // anything.
  [[nodiscard]] std::size_t FootprintBytes() const;

  // Releases the growth slack of every UG's storage, so each holds exactly
  // what it observed. The orchestrator calls it once per Absorb, after a
  // round of observations.
  void ShrinkToFit();

  // --- Local-index forms. ---
  //
  // A UG gives each session id it observes (as a chosen ingress, a candidate
  // it chose or lost against, or a measured ingress) a local index in
  // first-seen order, so an index never moves once assigned. Callers that
  // resolve an id once and query it many times (the orchestrator's Eq. 2
  // probes) use these; they take UGs from the flat index and do not check
  // `ug`.

  // The local index of `id` at `ug`, or kUnobserved: one binary search over
  // the UG's observed ids. Throws std::out_of_range for ug >= ug_count.
  [[nodiscard]] std::uint32_t LocalIndex(std::uint32_t ug,
                                         util::PeeringId id) const;

  // The loser row of `local`: bit l (row[l >> 6] >> (l & 63) & 1) is set iff
  // `ug` prefers `local` over local l, for every l the UG observed. nullptr
  // when `local` is kUnobserved or has no record (a record exists once the
  // session won or was measured, so a non-null row can still be all zero).
  [[nodiscard]] const std::uint64_t* LoserRow(std::uint32_t ug,
                                              std::uint32_t local) const {
    if (local == kUnobserved) return nullptr;
    const UgState& s = ugs_[ug];
    const std::size_t at = RecordAt(s, local);
    return at == kNoRecord ? nullptr : s.records.data() + at + 1;
  }

  // Bit `loser` of a LoserRow; `loser` must be an observed local index.
  [[nodiscard]] static bool RowHas(const std::uint64_t* row,
                                   std::uint32_t loser) {
    return ((row[loser >> 6] >> (loser & 63)) & 1u) != 0;
  }

  // A local index in one byte, for per-entry arrays (the orchestrator keeps
  // one per flat-index entry while the model holds a preference): indices
  // below 254 as themselves, kUnobserved as 254, and 255 for a larger index,
  // which UnpackLocal finds again by id. A UG of prototype_learn observes 76
  // ids on average and 146 at most.
  [[nodiscard]] static std::uint8_t PackLocal(std::uint32_t local) {
    if (local == kUnobserved) return kPackedUnobserved;
    return local < kPackedUnobserved ? static_cast<std::uint8_t>(local)
                                     : kPackedLarge;
  }
  [[nodiscard]] std::uint32_t UnpackLocal(std::uint32_t ug, util::PeeringId id,
                                          std::uint8_t packed) const {
    if (packed < kPackedUnobserved) return packed;
    return packed == kPackedUnobserved ? kUnobserved : LocalIndex(ug, id);
  }

  // Prefers / HasWins / MeasuredRtt on local indices; kUnobserved on either
  // side reads as never learned.
  [[nodiscard]] bool PrefersLocal(std::uint32_t ug, std::uint32_t winner,
                                  std::uint32_t loser) const {
    const std::uint64_t* row = LoserRow(ug, winner);
    return row != nullptr && loser != kUnobserved && RowHas(row, loser);
  }
  [[nodiscard]] bool HasWinsLocal(std::uint32_t ug, std::uint32_t winner) const;
  [[nodiscard]] std::optional<double> MeasuredRttLocal(
      std::uint32_t ug, std::uint32_t local) const;

 private:
  static constexpr std::uint8_t kPackedUnobserved = 254;
  static constexpr std::uint8_t kPackedLarge = 255;

  // One UG's learned state, sized to what the UG observed. A session that
  // won a pair or was measured has a record of row_words + 1 words: the
  // measured RTT's bits, then its loser row over local indices.
  //  - keys: one (id << 16) | local per observed id, sorted, so LocalIndex is
  //    one binary search; keys.size() is the number of local indices.
  //  - blocks: three words per 64 local indices — which of them have a
  //    record, which of those records hold a measured RTT, and how many
  //    records the earlier blocks have — so a local's record is found by
  //    rank in O(1).
  //  - records: ordered by local index. row_words = ceil(locals / 64); a
  //    65th, 129th, ... id widens every row by a word.
  // An id costs 4 bytes and 3 bits; a record 8 · (row_words + 1) bytes.
  struct UgState {
    std::vector<std::uint32_t> keys;
    std::vector<std::uint64_t> blocks;
    std::vector<std::uint64_t> records;
    std::uint32_t row_words = 0;
  };

  static constexpr std::size_t kNoRecord = static_cast<std::size_t>(-1);
  // Offset in s.records of the record of observed local `local`, or
  // kNoRecord.
  static std::size_t RecordAt(const UgState& s, std::uint32_t local) {
    const std::uint64_t* block = s.blocks.data() + 3 * (local >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (local & 63);
    if ((block[0] & bit) == 0) return kNoRecord;
    return (block[2] + static_cast<std::size_t>(
                           std::popcount(block[0] & (bit - 1)))) *
           (s.row_words + 1);
  }
  // The local index of `id` (< kMaxSessions), assigning the next one if the
  // UG has not observed it yet.
  static std::uint32_t Intern(UgState& s, util::PeeringId id);
  // RecordAt, inserting an empty record for `local` if it has none.
  static std::size_t RecordOf(UgState& s, std::uint32_t local);

  std::vector<UgState> ugs_;
  // Dense per-UG "has any pair" flag, kept apart from UgState so the
  // engine's per-probe HasPreferences test loads one byte.
  std::vector<std::uint8_t> has_prefs_;
  std::size_t preference_count_ = 0;
};

// Decay constant for the inflation-likelihood weights of the "estimated"
// range: weight ∝ exp(-excess_km / this).
inline constexpr double kInflationDecayKm = 4000.0;

struct ExpectationParams {
  // Minimum reuse distance D_reuse (km): candidates whose PoP is more than
  // this much farther than the closest candidate PoP are assumed unused.
  double d_reuse_km = 3000.0;
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
// compliant options among the advertised sessions): one LocalIndex search
// per candidate, then |candidates|² bit tests with learned preferences.
// This is the reference semantics: the naive greedy engine and the
// attributed path call it directly, and the incremental engine's per-UG
// surviving-set state (DESIGN.md §8) must match its mean bit for bit.
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
