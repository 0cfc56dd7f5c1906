#include "measure/latency.h"

#include <algorithm>
#include <cmath>
#include <iterator>
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

// Min over `count` pings of `truth` plus noise drawn from `rng`.
double MinOfPings(double truth, util::Rng& rng, int count) {
  double best = truth + ProbeNoiseMs(rng);
  for (int i = 1; i < count; ++i) {
    best = std::min(best, truth + ProbeNoiseMs(rng));
  }
  return best;
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
                                  util::AsId entry) const {
  const topo::AsInfo& info = internet_->graph.info(entry);

  // Bimodal per-(UG, entry AS): a few direct ("good") paths, the rest
  // mediocre. Mediocre paths share a per-UG level (the region's interdomain
  // detours are common to most of its paths) with a small per-AS jitter, so
  // bouncing between mediocre ASes gains almost nothing.
  util::Rng as_rng{
      MixSeed(config_.seed, 0x22, user.id.value(), entry.value())};
  const bool good = as_rng.Bernoulli(config_.good_path_prob);
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
  return as_rng.LogNormal(mu, sigma);
}

double LatencyOracle::TrueRttGiven(const cloudsim::UserGroup& user,
                                   const cloudsim::Peering& sess,
                                   double as_inflation) const {
  // A small per-session component differentiates a given AS's PoPs.
  util::Rng sess_rng{
      MixSeed(config_.seed, 0x33, user.id.value(), sess.id.value())};
  const double inflation =
      std::max(1.0, as_inflation * sess_rng.LogNormal(0.0, 0.08));
  const util::Km km =
      internet_->MetroKm(user.metro, deployment_->pop(sess.pop).metro);
  return last_mile_ms_[user.id.value()] +
         util::FiberRtt(km).count() * inflation + config_.session_overhead_ms;
}

util::Millis LatencyOracle::TrueRtt(util::UgId ug,
                                    util::PeeringId peering) const {
  const cloudsim::UserGroup& user = deployment_->ug(ug);
  const cloudsim::Peering& sess = deployment_->peering(peering);
  return util::Millis{TrueRttGiven(user, sess, AsInflation(user, sess.peer))};
}

util::Millis LatencyOracle::TrueRttOnDay(util::UgId ug,
                                         util::PeeringId peering,
                                         int day) const {
  double rtt = TrueRtt(ug, peering).count();
  if (day <= 0) return util::Millis{rtt};

  // A degraded regime starting on day s covers [s, s + duration). Scan the
  // possible start days that could still be active; durations are 1 plus an
  // exponential with a short mean, so a bounded lookback window keeps the
  // query O(window). At the default 4-day mean the window is 24 days, and a
  // regime outlives it only if 1 + Exp(mean 4) >= 26, probability
  // e^(-25/4) ~ 0.19%: the window covers ~99.8% of the mass.
  const int lookback =
      static_cast<int>(std::ceil(config_.shift_mean_duration_days * 6.0));
  for (int s = std::max(1, day - lookback); s <= day; ++s) {
    util::Rng rng{MixSeed(config_.seed, 0x44, MixSeed(ug.value(), peering.value()),
                          static_cast<std::uint64_t>(s))};
    if (!rng.Bernoulli(config_.daily_shift_prob)) continue;
    const double duration =
        1.0 + rng.Exponential(1.0 / config_.shift_mean_duration_days);
    if (day < s + static_cast<int>(duration)) {
      const double penalty =
          rng.LogNormal(config_.shift_penalty_mu, config_.shift_penalty_sigma);
      rtt *= std::max(1.0, penalty);
      break;  // one active regime at a time
    }
  }
  return util::Millis{rtt};
}

util::Millis LatencyOracle::ProbeOnce(util::UgId ug, util::PeeringId peering,
                                      util::Rng& rng, int day) const {
  const double truth = TrueRttOnDay(ug, peering, day).count();
  return util::Millis{truth + ProbeNoiseMs(rng)};
}

util::Millis LatencyOracle::MeasureMin(util::UgId ug, util::PeeringId peering,
                                       util::Rng& rng, int count,
                                       int day) const {
  return util::Millis{
      MinOfPings(TrueRttOnDay(ug, peering, day).count(), rng, count)};
}

std::vector<util::Millis> LatencyOracle::MeasureMinEach(
    util::UgId ug, std::span<const util::PeeringId> peerings, util::Rng& rng,
    int count) const {
  const cloudsim::UserGroup& user = deployment_->ug(ug);
  // A UG's compliant sessions enter through a handful of ASes, so a linear
  // scan of the ones seen so far finds each session's draw.
  std::vector<std::pair<util::AsId, double>> as_inflation;
  std::vector<util::Millis> out;
  out.reserve(peerings.size());
  for (util::PeeringId peering : peerings) {
    const cloudsim::Peering& sess = deployment_->peering(peering);
    auto it = std::find_if(as_inflation.begin(), as_inflation.end(),
                           [&](const auto& e) { return e.first == sess.peer; });
    if (it == as_inflation.end()) {
      as_inflation.emplace_back(sess.peer, AsInflation(user, sess.peer));
      it = std::prev(as_inflation.end());
    }
    const double truth = TrueRttGiven(user, sess, it->second);
    out.emplace_back(MinOfPings(truth, rng, count));
  }
  return out;
}

}  // namespace painter::measure
