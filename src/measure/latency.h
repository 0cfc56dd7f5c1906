// Ground-truth latency model and probe measurements.
//
// The paper measures UG→ingress RTTs with pings (min of 7 to approximate
// propagation delay, §5.1.1). A reproduction has no Internet to ping, so this
// module owns the *ground truth*: a deterministic RTT for every (UG, peering)
// pair, composed of last-mile delay, great-circle fiber propagation, and a
// per-(UG, entry-AS) inflation factor — higher through transit providers,
// which the paper found "inflate routes even over very large distances"
// (§5.1.2). A probe layer adds queueing jitter on top, so min-of-N pings
// converges to the truth the way real pings do.
//
// Time variation (Fig. 7) is modelled as day-indexed multiplicative regime
// shifts: most days a path keeps its baseline; occasionally a routing change
// inflates it for a stretch of days. All draws are hash-seeded: the same
// (seed, ug, peering, day) always yields the same latency.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cloudsim/deployment.h"
#include "topo/generator.h"
#include "util/hashmix.h"
#include "util/rng.h"
#include "util/units.h"

namespace painter::measure {

struct OracleConfig {
  std::uint64_t seed = 42;

  // Last-mile RTT, lognormal across UGs.
  double last_mile_mu = 1.4;     // exp(1.4) ~ 4 ms median
  double last_mile_sigma = 0.5;

  // Path inflation over straight fiber is *bimodal* per (UG, AS): most
  // interdomain paths are mediocre (circuitous at the AS level), while a
  // small fraction are direct. This matches the paper's finding that latency
  // gains are concentrated in a few ingresses for each user (8k UGs improved
  // through 250 of 9,000 ingresses, §5.1.1): escaping a mediocre anycast
  // path requires hitting one of the UG's few *good* ingresses — a random
  // entry-AS change (per-PoP prefixes, blanket transit announcements) just
  // lands on another mediocre path.
  // Mediocre paths are *correlated within a UG*: the region's interdomain
  // paths toward the cloud share most of their shape, so escaping a mediocre
  // anycast path by bouncing to another mediocre AS gains almost nothing —
  // only the UG's few good ingresses do.
  double good_path_prob = 0.10;
  double good_inflation_mu = 0.05;   // ~1.05x, tight
  double good_inflation_sigma = 0.12;
  double inflation_mu = 0.85;        // mediocre level, ~2.3x median, per UG
  double inflation_sigma = 0.35;     // spread of the per-UG mediocre level
  double mediocre_as_jitter_sigma = 0.10;  // per-AS wiggle around the level
  // Extra inflation applied when the entry AS is a transit/tier-1 network
  // ("transit providers tended to inflate routes even over very large
  // distances", §5.1.2). Applied to both modes.
  double transit_inflation_bonus_mu = 0.08;
  // Extra inflation when the entry AS routes with a fixed (cold-potato) exit.
  double fixed_exit_bonus_mu = 0.30;

  // Fixed per-session overhead (peering router, cloud front-end terminate).
  double session_overhead_ms = 1.0;

  // --- Temporal dynamics (Fig. 7). ---
  // Probability a (UG, peering) path enters a degraded regime on a given day.
  double daily_shift_prob = 0.04;
  // Degraded regimes last this many days on average (geometric).
  double shift_mean_duration_days = 4.0;
  // Multiplicative RTT penalty while degraded, lognormal.
  double shift_penalty_mu = 0.7;  // ~2x median
  double shift_penalty_sigma = 0.5;
};

// One (UG, peering) pair of a batch query.
struct UgPeering {
  util::UgId ug;
  util::PeeringId peering;
};

// Every query is a batch. A batch makes all of its keyed draws first, a few
// seeds at a time through util::ForEachKeyed, then takes its pings from the
// caller's stream in pair order. Each single-pair query is a batch of one,
// so every keyed value has one code path, and a batch equals the per-pair
// loop value for value and leaves the stream where the loop leaves it.
class LatencyOracle {
 public:
  LatencyOracle(const topo::Internet& internet,
                const cloudsim::Deployment& deployment, OracleConfig config);

  // Baseline (day 0) ground-truth RTT through a peering.
  [[nodiscard]] util::Millis TrueRtt(util::UgId ug,
                                     util::PeeringId peering) const;

  // Ground-truth RTT on a given day, including regime shifts.
  [[nodiscard]] util::Millis TrueRttOnDay(util::UgId ug,
                                          util::PeeringId peering,
                                          int day) const;

  // TrueRttOnDay(pair.ug, pair.peering, day) for each pair in order. The
  // (UG, entry-AS) draw is made once per distinct entry AS of each run of
  // pairs with the same UG.
  [[nodiscard]] std::vector<util::Millis> TrueRttEach(
      std::span<const UgPeering> pairs, int day = 0) const;

  // TrueRttOnDay(ug, p, day) for each p of `peerings` in order: one UG's
  // sessions, with one (UG, entry-AS) draw per distinct entry AS.
  [[nodiscard]] std::vector<util::Millis> TrueRttOnDayEach(
      util::UgId ug, std::span<const util::PeeringId> peerings,
      int day) const;

  // One ping: truth plus queueing jitter (always >= truth).
  [[nodiscard]] util::Millis ProbeOnce(util::UgId ug, util::PeeringId peering,
                                       util::Rng& rng, int day = 0) const;

  // Min over `count` pings — the paper's measurement primitive. Equal to the
  // min of `count` ProbeOnce calls, but evaluates the truth only once.
  // Throws std::invalid_argument for count < 1, before drawing anything; so
  // do both MeasureMinEach forms.
  [[nodiscard]] util::Millis MeasureMin(util::UgId ug, util::PeeringId peering,
                                        util::Rng& rng, int count = 7,
                                        int day = 0) const;

  // MeasureMin(pair.ug, pair.peering, rng, count, day) for each pair in
  // order.
  [[nodiscard]] std::vector<util::Millis> MeasureMinEach(
      std::span<const UgPeering> pairs, util::Rng& rng, int count = 7,
      int day = 0) const;

  // MeasureMin(ug, p, rng, count) for each p of `peerings` in order, at day
  // 0: one UG's sessions, with one (UG, entry-AS) draw per distinct entry
  // AS, which is what makes probing every compliant ingress of a UG cheap.
  [[nodiscard]] std::vector<util::Millis> MeasureMinEach(
      util::UgId ug, std::span<const util::PeeringId> peerings, util::Rng& rng,
      int count = 7) const;

  [[nodiscard]] const cloudsim::Deployment& deployment() const {
    return *deployment_;
  }
  [[nodiscard]] const topo::Internet& internet() const { return *internet_; }

 private:
  // The truths of `pairs` at `day`, into out[0, pairs.size()): the one code
  // path of the keyed draws below. The deployment rejects an out-of-range
  // id before any per-UG vector is read.
  void TruthsInto(std::span<const UgPeering> pairs, int day,
                  util::Millis* out) const;

  // The (UG, entry-AS) factor of the path inflation (key 0x22): bimodal
  // between a few direct paths and the UG's mediocre level, plus the entry
  // AS's transit and fixed-exit bonuses.
  [[nodiscard]] double AsInflation(const cloudsim::UserGroup& user,
                                   util::AsId entry,
                                   util::KeyedRng& rng) const;

  // TrueRtt given `as_inflation`, the UG's AsInflation for the session's
  // peer: applies the per-session factor (key 0x33) to the fiber RTT between
  // the UG's and the PoP's metros.
  [[nodiscard]] double TrueRttGiven(const cloudsim::UserGroup& user,
                                    const cloudsim::Peering& sess,
                                    double as_inflation,
                                    util::KeyedRng& rng) const;

  // The penalty of a degraded regime that starts on day `start` (key 0x44),
  // if one starts then and still covers `day`.
  [[nodiscard]] std::optional<double> RegimePenalty(int start, int day,
                                                    util::KeyedRng& rng) const;

  const topo::Internet* internet_;
  const cloudsim::Deployment* deployment_;
  OracleConfig config_;
  // Per-UG draws, indexed by UG id and made once at construction: the
  // last-mile RTT (key 0x11) and the mediocre inflation level mu (key 0x77).
  std::vector<double> last_mile_ms_;
  std::vector<double> mediocre_mu_;
};

// Deterministic 64-bit mix for hash-seeded draws (now in util/hashmix.h;
// alias kept since every stochastic component of the oracle uses it).
using util::MixSeed;

}  // namespace painter::measure
