#include "measure/latency.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace painter::measure {

namespace {

// Queueing/processing noise of one ping: exponential tail, occasionally a
// large spike.
double ProbeNoiseMs(util::Rng& rng) {
  double noise = rng.Exponential(1.0 / 1.5);
  if (rng.Bernoulli(0.05)) noise += rng.Exponential(1.0 / 20.0);
  return noise;
}

void RequirePings(int count) {
  if (count < 1) {
    throw std::invalid_argument{"LatencyOracle: ping count must be >= 1"};
  }
}

// Min over `count` >= 1 pings of `truth` plus noise drawn from `rng`.
double MinOfPings(double truth, util::Rng& rng, int count) {
  double best = truth + ProbeNoiseMs(rng);
  for (int i = 1; i < count; ++i) {
    best = std::min(best, truth + ProbeNoiseMs(rng));
  }
  return best;
}

std::vector<UgPeering> PairsOf(util::UgId ug,
                               std::span<const util::PeeringId> peerings) {
  std::vector<UgPeering> pairs;
  pairs.reserve(peerings.size());
  for (const util::PeeringId p : peerings) pairs.push_back({ug, p});
  return pairs;
}

}  // namespace

LatencyOracle::LatencyOracle(const topo::Internet& internet,
                             const cloudsim::Deployment& deployment,
                             OracleConfig config)
    : internet_(&internet), deployment_(&deployment), config_(config) {
  const obs::TraceSpan span{"measure.LatencyOracle"};
  const std::size_t ugs = deployment.ugs().size();
  last_mile_ms_.reserve(ugs);
  mediocre_mu_.reserve(ugs);
  for (std::uint64_t ug = 0; ug < ugs; ++ug) {
    util::Rng last_mile{MixSeed(config_.seed, 0x11, ug)};
    last_mile_ms_.push_back(
        last_mile.LogNormal(config_.last_mile_mu, config_.last_mile_sigma));
    // The per-UG mediocre level, identical across this UG's mediocre ASes.
    util::Rng level{MixSeed(config_.seed, 0x77, ug)};
    mediocre_mu_.push_back(config_.inflation_mu +
                           level.Normal(0.0, config_.inflation_sigma));
  }
}

double LatencyOracle::AsInflation(const cloudsim::UserGroup& user,
                                  util::AsId entry,
                                  util::KeyedRng& rng) const {
  const topo::AsInfo& info = internet_->graph.info(entry);

  // Bimodal per-(UG, entry AS): a few direct ("good") paths, the rest
  // mediocre. Mediocre paths share a per-UG level (the region's interdomain
  // detours are common to most of its paths) with a small per-AS jitter, so
  // bouncing between mediocre ASes gains almost nothing.
  const bool good = rng.Bernoulli(config_.good_path_prob);
  double mu = 0.0;
  double sigma = 0.0;
  if (good) {
    mu = config_.good_inflation_mu;
    sigma = config_.good_inflation_sigma;
  } else {
    mu = mediocre_mu_[user.id.value()];
    sigma = config_.mediocre_as_jitter_sigma;
  }
  if (info.tier == topo::AsTier::kTier1 ||
      info.tier == topo::AsTier::kTransit) {
    mu += config_.transit_inflation_bonus_mu;
  }
  if (info.exit_policy == topo::ExitPolicy::kFixedExit) {
    mu += config_.fixed_exit_bonus_mu;
  }
  return rng.LogNormal(mu, sigma);
}

double LatencyOracle::TrueRttGiven(const cloudsim::UserGroup& user,
                                   const cloudsim::Peering& sess,
                                   double as_inflation,
                                   util::KeyedRng& rng) const {
  // A small per-session component differentiates a given AS's PoPs.
  const double inflation =
      std::max(1.0, as_inflation * rng.LogNormal(0.0, 0.08));
  const util::Km km =
      internet_->MetroKm(user.metro, deployment_->pop(sess.pop).metro);
  return last_mile_ms_[user.id.value()] +
         util::FiberRtt(km).count() * inflation + config_.session_overhead_ms;
}

std::optional<double> LatencyOracle::RegimePenalty(int start, int day,
                                                   util::KeyedRng& rng) const {
  if (!rng.Bernoulli(config_.daily_shift_prob)) return std::nullopt;
  const double duration =
      1.0 + rng.Exponential(1.0 / config_.shift_mean_duration_days);
  if (day >= start + static_cast<int>(duration)) return std::nullopt;
  return rng.LogNormal(config_.shift_penalty_mu, config_.shift_penalty_sigma);
}

void LatencyOracle::TruthsInto(std::span<const UgPeering> pairs, int day,
                               util::Millis* out) const {
  const std::size_t n = pairs.size();
  // The (UG, entry-AS) draws, one per distinct entry AS of each run of pairs
  // with the same UG. A UG's sessions enter through a handful of ASes, so a
  // linear scan of the run's draws finds each session's.
  struct AsDraw {
    const cloudsim::UserGroup* user;
    util::AsId entry;
    double inflation;
  };
  std::vector<AsDraw> as_draws;
  std::vector<std::uint32_t> as_draw_of(n);
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const cloudsim::UserGroup& user = deployment_->ug(pairs[i].ug);
    const util::AsId entry = deployment_->peering(pairs[i].peering).peer;
    if (i > 0 && pairs[i].ug != pairs[i - 1].ug) run = as_draws.size();
    auto it = std::find_if(as_draws.begin() + static_cast<std::ptrdiff_t>(run),
                           as_draws.end(),
                           [&](const AsDraw& d) { return d.entry == entry; });
    if (it == as_draws.end()) {
      as_draws.push_back({&user, entry, 0.0});
      it = std::prev(as_draws.end());
    }
    as_draw_of[i] = static_cast<std::uint32_t>(it - as_draws.begin());
  }

  // On day > 0, a degraded regime starting on day s covers [s, s + duration).
  // Scan the possible start days that could still be active; durations are 1
  // plus an exponential with a short mean, so a bounded lookback window keeps
  // the query O(window). At the default 4-day mean the window is 24 days,
  // and a regime outlives it only if 1 + Exp(mean 4) >= 26, probability
  // e^(-25/4) ~ 0.19%: the window covers ~99.8% of the mass.
  const int lookback =
      static_cast<int>(std::ceil(config_.shift_mean_duration_days * 6.0));
  const int first_start = std::max(1, day - lookback);
  const std::size_t window =
      day > 0 ? static_cast<std::size_t>(day - first_start + 1) : 0;

  // One keyed batch: the AS draws, then each pair's session draw, then each
  // pair's regime draws in start-day order. The earliest regime that still
  // covers `day` applies, one active regime at a time.
  const std::size_t as_count = as_draws.size();
  std::size_t settled = n;  // the last pair whose regime was found
  util::ForEachKeyed(
      as_count + n + n * window,
      [&](std::size_t k) {
        if (k < as_count) {
          return MixSeed(config_.seed, 0x22, as_draws[k].user->id.value(),
                         as_draws[k].entry.value());
        }
        k -= as_count;
        if (k < n) {
          return MixSeed(config_.seed, 0x33, pairs[k].ug.value(),
                         pairs[k].peering.value());
        }
        k -= n;
        const UgPeering& pair = pairs[k / window];
        return MixSeed(config_.seed, 0x44,
                       MixSeed(pair.ug.value(), pair.peering.value()),
                       static_cast<std::uint64_t>(first_start) + k % window);
      },
      [&](std::size_t k, util::KeyedRng& rng) {
        if (k < as_count) {
          as_draws[k].inflation =
              AsInflation(*as_draws[k].user, as_draws[k].entry, rng);
          return;
        }
        k -= as_count;
        if (k < n) {
          const AsDraw& as_draw = as_draws[as_draw_of[k]];
          out[k] = util::Millis{
              TrueRttGiven(*as_draw.user, deployment_->peering(pairs[k].peering),
                           as_draw.inflation, rng)};
          return;
        }
        k -= n;
        const std::size_t i = k / window;
        if (i == settled) return;
        const int start = first_start + static_cast<int>(k % window);
        if (const auto penalty = RegimePenalty(start, day, rng)) {
          out[i] = util::Millis{out[i].count() * std::max(1.0, *penalty)};
          settled = i;
        }
      });
}

util::Millis LatencyOracle::TrueRtt(util::UgId ug,
                                    util::PeeringId peering) const {
  return TrueRttOnDay(ug, peering, 0);
}

util::Millis LatencyOracle::TrueRttOnDay(util::UgId ug,
                                         util::PeeringId peering,
                                         int day) const {
  const UgPeering pair{ug, peering};
  util::Millis truth;
  TruthsInto({&pair, 1}, day, &truth);
  return truth;
}

std::vector<util::Millis> LatencyOracle::TrueRttEach(
    std::span<const UgPeering> pairs, int day) const {
  const obs::TraceSpan span{"measure.LatencyOracle.TrueRttEach"};
  std::vector<util::Millis> out(pairs.size());
  TruthsInto(pairs, day, out.data());
  return out;
}

std::vector<util::Millis> LatencyOracle::TrueRttOnDayEach(
    util::UgId ug, std::span<const util::PeeringId> peerings,
    int day) const {
  const obs::TraceSpan span{"measure.LatencyOracle.TrueRttOnDayEach"};
  std::vector<util::Millis> out(peerings.size());
  TruthsInto(PairsOf(ug, peerings), day, out.data());
  return out;
}

util::Millis LatencyOracle::ProbeOnce(util::UgId ug, util::PeeringId peering,
                                      util::Rng& rng, int day) const {
  const double truth = TrueRttOnDay(ug, peering, day).count();
  return util::Millis{truth + ProbeNoiseMs(rng)};
}

util::Millis LatencyOracle::MeasureMin(util::UgId ug, util::PeeringId peering,
                                       util::Rng& rng, int count,
                                       int day) const {
  RequirePings(count);
  return util::Millis{
      MinOfPings(TrueRttOnDay(ug, peering, day).count(), rng, count)};
}

std::vector<util::Millis> LatencyOracle::MeasureMinEach(
    std::span<const UgPeering> pairs, util::Rng& rng, int count,
    int day) const {
  const obs::TraceSpan span{"measure.LatencyOracle.MeasureMinEach"};
  RequirePings(count);
  std::vector<util::Millis> out(pairs.size());
  TruthsInto(pairs, day, out.data());
  for (util::Millis& rtt : out) {
    rtt = util::Millis{MinOfPings(rtt.count(), rng, count)};
  }
  return out;
}

std::vector<util::Millis> LatencyOracle::MeasureMinEach(
    util::UgId ug, std::span<const util::PeeringId> peerings, util::Rng& rng,
    int count) const {
  return MeasureMinEach(PairsOf(ug, peerings), rng, count);
}

}  // namespace painter::measure
