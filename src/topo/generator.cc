#include "topo/generator.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

namespace painter::topo {
namespace {

// Picks `n` distinct metros, weighted by population, biased to be near
// `anchor` when `local` is true (regional ISPs cluster geographically).
std::vector<util::MetroId> PickPresence(const Internet& net, util::Rng& rng,
                                        std::size_t n, const Metro* anchor,
                                        bool local) {
  const std::vector<Metro>& metros = net.metros;
  std::vector<double> weights(metros.size());
  for (std::size_t i = 0; i < metros.size(); ++i) {
    double w = metros[i].population_weight;
    if (local && anchor != nullptr) {
      const double d = net.MetroKm(anchor->id, metros[i].id).count();
      // Strong distance decay: ~halves every 1500 km.
      w *= std::exp(-d / 2000.0);
    }
    weights[i] = w;
  }
  std::vector<util::MetroId> picked;
  picked.reserve(n);
  for (std::size_t k = 0; k < n && k < metros.size(); ++k) {
    const std::size_t idx = rng.WeightedIndex(weights);
    if (idx >= weights.size()) break;
    picked.push_back(metros[idx].id);
    weights[idx] = 0.0;  // without replacement
  }
  if (picked.empty()) picked.push_back(metros.front().id);
  return picked;
}

std::size_t DrawProviderCount(util::Rng& rng,
                              std::span<const double> weights) {
  const std::size_t i = rng.WeightedIndex(weights);
  return i >= weights.size() ? 1 : i + 1;
}

// Chooses providers present near the customer. Customers buy connectivity
// from ISPs that operate where they are: the decay is sharp and providers
// with no presence within a service radius are ineligible (falling back to
// whatever is nearest only if nothing qualifies).
std::vector<util::AsId> PickProviders(const Internet& net, util::Rng& rng,
                                      const std::vector<util::AsId>& pool,
                                      util::MetroId customer_home,
                                      std::size_t count) {
  constexpr double kServiceRadiusKm = 2500.0;
  std::vector<double> weights(pool.size());
  double nearest_km = 1e18;
  std::size_t nearest_idx = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const AsInfo& cand = net.graph.info(pool[i]);
    double best_km = 1e18;
    for (util::MetroId m : cand.presence) {
      best_km = std::min(best_km, net.MetroKm(customer_home, m).count());
    }
    weights[i] = best_km <= kServiceRadiusKm ? std::exp(-best_km / 800.0) : 0.0;
    if (best_km < nearest_km) {
      nearest_km = best_km;
      nearest_idx = i;
    }
  }
  std::vector<util::AsId> chosen;
  for (std::size_t k = 0; k < count && k < pool.size(); ++k) {
    const std::size_t idx = rng.WeightedIndex(weights);
    if (idx >= weights.size()) {
      // Nothing within the service radius: take the closest option once.
      if (chosen.empty() && !pool.empty()) chosen.push_back(pool[nearest_idx]);
      break;
    }
    chosen.push_back(pool[idx]);
    weights[idx] = 0.0;
  }
  return chosen;
}

ExitPolicy DrawExit(util::Rng& rng, double fixed_frac) {
  return rng.Bernoulli(fixed_frac) ? ExitPolicy::kFixedExit
                                   : ExitPolicy::kEarlyExit;
}

}  // namespace

Internet GenerateInternet(const InternetConfig& config) {
  Internet net;
  net.metros = WorldMetros();
  net.metro_km.reserve(net.metros.size() * net.metros.size());
  for (const Metro& a : net.metros) {
    for (const Metro& b : net.metros) {
      net.metro_km.push_back(Distance(a.location, b.location));
    }
  }
  util::Rng rng{config.seed};
  AsGraph& g = net.graph;

  // --- Tier-1 backbones: global presence, full peer mesh. ---
  std::vector<util::AsId> tier1;
  for (std::size_t i = 0; i < config.tier1_count; ++i) {
    auto presence = PickPresence(net, rng, 45, nullptr, false);
    const util::MetroId bias = presence[rng.Index(presence.size())];
    tier1.push_back(g.AddAs(AsTier::kTier1, "T1-" + std::to_string(i),
                            std::move(presence),
                            DrawExit(rng, config.tier1_fixed_exit_frac), bias));
  }
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      g.AddPeerEdge(tier1[i], tier1[j]);
    }
  }

  // --- Transit providers: customers of 1-3 tier-1s, continental footprints.
  std::vector<util::AsId> transits;
  for (std::size_t i = 0; i < config.transit_count; ++i) {
    const Metro& anchor = net.metros[rng.Index(net.metros.size())];
    // Broad, globally spread footprints: a transit that interconnects with
    // the cloud tends to do so near most of the cloud's PoPs, so (a) its
    // early-exit anycast choice lands users at a nearby PoP (anycast is
    // near-optimal for most users, §2.1) and (b) its ingress choice is
    // *correlated* across per-PoP prefixes — per-PoP advertisement cannot
    // escape a poorly-performing transit.
    auto presence = PickPresence(net, rng, 40, &anchor, false);
    const util::MetroId bias = presence.front();
    const util::AsId id =
        g.AddAs(AsTier::kTransit, "TR-" + std::to_string(i),
                std::move(presence),
                DrawExit(rng, config.transit_fixed_exit_frac), bias);
    const std::size_t np = 1 + rng.Index(3);
    for (util::AsId p : PickProviders(net, rng, tier1, anchor.id, np)) {
      g.AddProviderEdge(p, id);
    }
    transits.push_back(id);
  }
  // Peer transits that share a metro.
  for (std::size_t i = 0; i < transits.size(); ++i) {
    for (std::size_t j = i + 1; j < transits.size(); ++j) {
      const auto& pa = g.info(transits[i]).presence;
      const auto& pb = g.info(transits[j]).presence;
      const bool share = std::any_of(pa.begin(), pa.end(), [&](util::MetroId m) {
        return std::find(pb.begin(), pb.end(), m) != pb.end();
      });
      if (share && rng.Bernoulli(config.transit_peering_prob)) {
        g.AddPeerEdge(transits[i], transits[j]);
      }
    }
  }

  // --- Regional ISPs: customers of transits (sometimes tier-1s). ---
  std::vector<util::AsId> regionals;
  for (std::size_t i = 0; i < config.regional_count; ++i) {
    const Metro& anchor = net.metros[rng.Index(net.metros.size())];
    auto presence = PickPresence(net, rng, 3, &anchor, true);
    const util::MetroId bias = presence.front();
    const util::AsId id =
        g.AddAs(AsTier::kRegional, "R-" + std::to_string(i),
                std::move(presence),
                DrawExit(rng, config.regional_fixed_exit_frac), bias);
    const std::size_t np =
        DrawProviderCount(rng, config.provider_count_weights);
    const auto& pool = rng.Bernoulli(0.85) ? transits : tier1;
    for (util::AsId p : PickProviders(net, rng, pool, anchor.id, np)) {
      g.AddProviderEdge(p, id);
    }
    regionals.push_back(id);
  }
  // Occasional regional peering within a metro.
  for (std::size_t i = 0; i < regionals.size(); ++i) {
    for (std::size_t j = i + 1; j < regionals.size(); ++j) {
      const auto& pa = g.info(regionals[i]).presence;
      const auto& pb = g.info(regionals[j]).presence;
      const bool share = std::any_of(pa.begin(), pa.end(), [&](util::MetroId m) {
        return std::find(pb.begin(), pb.end(), m) != pb.end();
      });
      if (share && rng.Bernoulli(config.regional_peering_prob)) {
        g.AddPeerEdge(regionals[i], regionals[j]);
      }
    }
  }

  // --- Stubs: enterprises and eyeballs; multihomed to regionals/transits. ---
  // Stub home metros follow population weight, so UGs and traffic concentrate
  // in large metros the way cloud traffic does.
  std::vector<double> metro_weights(net.metros.size());
  for (std::size_t i = 0; i < net.metros.size(); ++i) {
    metro_weights[i] = net.metros[i].population_weight;
  }
  for (std::size_t i = 0; i < config.stub_count; ++i) {
    const std::size_t mi = rng.WeightedIndex(metro_weights);
    const Metro& home = net.metros[mi >= net.metros.size() ? 0 : mi];
    const util::AsId id = g.AddAs(AsTier::kStub, "S-" + std::to_string(i),
                                  {home.id}, ExitPolicy::kEarlyExit, home.id);
    const std::size_t np =
        DrawProviderCount(rng, config.provider_count_weights);
    // 80% of provider slots go to regionals, the rest to transits.
    std::size_t wanted_regional = 0;
    for (std::size_t k = 0; k < np; ++k) {
      if (rng.Bernoulli(0.8)) ++wanted_regional;
    }
    auto provs = PickProviders(net, rng, regionals, home.id, wanted_regional);
    const auto more =
        PickProviders(net, rng, transits, home.id, np - provs.size());
    provs.insert(provs.end(), more.begin(), more.end());
    if (provs.empty()) provs.push_back(transits[rng.Index(transits.size())]);
    for (util::AsId p : provs) g.AddProviderEdge(p, id);
  }

  return net;
}

}  // namespace painter::topo
