#include "measure/latency.h"

#include <cmath>

namespace painter::measure {

namespace {

// Queueing/processing noise of one ping: exponential tail, occasionally a
// large spike.
double ProbeNoiseMs(util::Rng& rng) {
  double noise = rng.Exponential(1.0 / 1.5);
  if (rng.Bernoulli(0.05)) noise += rng.Exponential(1.0 / 20.0);
  return noise;
}

}  // namespace

LatencyOracle::LatencyOracle(const topo::Internet& internet,
                             const cloudsim::Deployment& deployment,
                             OracleConfig config)
    : internet_(&internet), deployment_(&deployment), config_(config) {
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

double LatencyOracle::InflationFactor(util::UgId ug,
                                      util::PeeringId peering) const {
  const cloudsim::Peering& sess = deployment_->peering(peering);
  const topo::AsInfo& entry = internet_->graph.info(sess.peer);

  // Bimodal per-(UG, entry AS): a few direct ("good") paths, the rest
  // mediocre. Mediocre paths share a per-UG level (the region's interdomain
  // detours are common to most of its paths) with a small per-AS jitter, so
  // bouncing between mediocre ASes gains almost nothing. A small per-session
  // component differentiates a given AS's PoPs.
  util::Rng as_rng{MixSeed(config_.seed, 0x22, ug.value(), sess.peer.value())};
  const bool good = as_rng.Bernoulli(config_.good_path_prob);
  double mu = 0.0;
  double sigma = 0.0;
  if (good) {
    mu = config_.good_inflation_mu;
    sigma = config_.good_inflation_sigma;
  } else {
    mu = mediocre_mu_[ug.value()];
    sigma = config_.mediocre_as_jitter_sigma;
  }
  if (entry.tier == topo::AsTier::kTier1 ||
      entry.tier == topo::AsTier::kTransit) {
    mu += config_.transit_inflation_bonus_mu;
  }
  if (entry.exit_policy == topo::ExitPolicy::kFixedExit) {
    mu += config_.fixed_exit_bonus_mu;
  }
  util::Rng sess_rng{MixSeed(config_.seed, 0x33, ug.value(), peering.value())};
  const double as_part = as_rng.LogNormal(mu, sigma);
  const double sess_part = sess_rng.LogNormal(0.0, 0.08);
  return std::max(1.0, as_part * sess_part);
}

util::Millis LatencyOracle::TrueRtt(util::UgId ug,
                                    util::PeeringId peering) const {
  const cloudsim::Peering& sess = deployment_->peering(peering);
  const cloudsim::UserGroup& user = deployment_->ug(ug);
  const auto& metros = internet_->metros;
  const topo::GeoPoint& a = metros[user.metro.value()].location;
  const topo::GeoPoint& b =
      metros[deployment_->pop(sess.pop).metro.value()].location;
  const double fiber_rtt = util::FiberRtt(topo::Distance(a, b)).count();
  return util::Millis{last_mile_ms_[ug.value()] +
                      fiber_rtt * InflationFactor(ug, peering) +
                      config_.session_overhead_ms};
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
  const double truth = TrueRttOnDay(ug, peering, day).count();
  double best = truth + ProbeNoiseMs(rng);
  for (int i = 1; i < count; ++i) {
    best = std::min(best, truth + ProbeNoiseMs(rng));
  }
  return util::Millis{best};
}

}  // namespace painter::measure
