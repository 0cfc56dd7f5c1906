#include "cloudsim/deployment.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"

namespace painter::cloudsim {

Deployment::Deployment(util::AsId cloud_as, std::vector<Pop> pops,
                       std::vector<Peering> peerings,
                       std::vector<UserGroup> ugs)
    : cloud_as_(cloud_as),
      pops_(std::move(pops)),
      peerings_(std::move(peerings)),
      ugs_(std::move(ugs)) {
  for (const Peering& p : peerings_) {
    by_as_[p.peer].push_back(p.id);
    if (p.transit) transit_peerings_.push_back(p.id);
  }
  for (const UserGroup& ug : ugs_) total_weight_ += ug.traffic_weight;
}

const Pop& Deployment::pop(util::PopId id) const {
  if (!id.valid() || id.value() >= pops_.size()) {
    throw std::out_of_range{"Deployment::pop"};
  }
  return pops_[id.value()];
}

const Peering& Deployment::peering(util::PeeringId id) const {
  if (!id.valid() || id.value() >= peerings_.size()) {
    throw std::out_of_range{"Deployment::peering"};
  }
  return peerings_[id.value()];
}

const UserGroup& Deployment::ug(util::UgId id) const {
  if (!id.valid() || id.value() >= ugs_.size()) {
    throw std::out_of_range{"Deployment::ug"};
  }
  return ugs_[id.value()];
}

std::span<const util::PeeringId> Deployment::PeeringsOfAs(
    util::AsId as) const {
  const auto it = by_as_.find(as);
  if (it == by_as_.end()) return {};
  return it->second;
}

Deployment BuildDeployment(topo::Internet& internet,
                           const DeploymentConfig& config) {
  const obs::TraceSpan span{"cloudsim.BuildDeployment"};
  util::Rng rng{config.seed};
  topo::AsGraph& g = internet.graph;
  const auto& metros = internet.metros;

  // --- Place PoPs in the highest-weight metros. ---
  std::vector<std::size_t> metro_order(metros.size());
  for (std::size_t i = 0; i < metros.size(); ++i) metro_order[i] = i;
  std::sort(metro_order.begin(), metro_order.end(), [&](std::size_t a,
                                                        std::size_t b) {
    return metros[a].population_weight > metros[b].population_weight;
  });
  const std::size_t pop_count = std::min(config.pop_count, metros.size());
  std::vector<Pop> pops;
  std::vector<util::MetroId> pop_metros;
  for (std::size_t i = 0; i < pop_count; ++i) {
    const topo::Metro& m = metros[metro_order[i]];
    pops.push_back(Pop{.id = util::PopId{static_cast<std::uint32_t>(i)},
                       .metro = m.id,
                       .name = "PoP-" + m.name});
    pop_metros.push_back(m.id);
  }

  // --- Insert the cloud AS, present at every PoP metro. ---
  const util::AsId cloud = g.AddAs(topo::AsTier::kCloud, "CLOUD", pop_metros,
                                   topo::ExitPolicy::kEarlyExit,
                                   pop_metros.front());

  // --- Transit providers: the cloud buys transit from a few tier-1s. ---
  const auto tier1s = g.AsesOfTier(topo::AsTier::kTier1);
  std::vector<util::AsId> transit_providers;
  for (std::size_t i = 0;
       i < config.transit_provider_count && i < tier1s.size(); ++i) {
    transit_providers.push_back(tier1s[i]);
    g.AddProviderEdge(/*provider=*/tier1s[i], /*customer=*/cloud);
  }

  // --- Peerings: sessions with networks co-located at PoP metros. ---
  // An AS peers with the cloud at every PoP metro where both are present,
  // subject to a per-tier probability of peering at all. Transit providers
  // get sessions at all shared PoPs.
  std::vector<Peering> peerings;
  auto add_session = [&](util::AsId peer, util::PopId pop, bool transit) {
    peerings.push_back(
        Peering{.id = util::PeeringId{static_cast<std::uint32_t>(peerings.size())},
                .peer = peer,
                .pop = pop,
                .transit = transit});
  };
  auto pop_at_metro = [&](util::MetroId m) -> std::optional<util::PopId> {
    for (const Pop& p : pops) {
      if (p.metro == m) return p.id;
    }
    return std::nullopt;
  };

  for (std::uint32_t v = 0; v + 1 < g.size(); ++v) {  // excludes the cloud AS
    const util::AsId as{v};
    const topo::AsInfo& info = g.info(as);
    const bool is_transit_provider =
        std::find(transit_providers.begin(), transit_providers.end(), as) !=
        transit_providers.end();
    double prob = 0.0;
    switch (info.tier) {
      case topo::AsTier::kTier1:
        prob = is_transit_provider ? 1.0 : config.transit_peer_prob;
        break;
      case topo::AsTier::kTransit:
        prob = config.transit_peer_prob;
        break;
      case topo::AsTier::kRegional:
        prob = config.regional_peer_prob;
        break;
      case topo::AsTier::kStub:
        prob = config.stub_peer_prob;
        break;
      case topo::AsTier::kCloud:
        continue;
    }
    if (!is_transit_provider && !rng.Bernoulli(prob)) continue;

    bool any_session = false;
    for (util::MetroId m : info.presence) {
      const auto pop = pop_at_metro(m);
      if (!pop.has_value()) continue;
      add_session(as, *pop, is_transit_provider);
      any_session = true;
    }
    if (any_session && !is_transit_provider &&
        info.tier != topo::AsTier::kStub) {
      // Register the settlement-free peering in the AS graph so BGP policy
      // (export only to customers) applies to the cloud's announcements.
      g.AddPeerEdge(cloud, as);
    } else if (any_session && info.tier == topo::AsTier::kStub) {
      // Directly-connected enterprises buy a connection: cloud treats them as
      // peers as well (paths are customer-like but symmetric for our needs).
      g.AddPeerEdge(cloud, as);
    }
  }

  // --- User groups: one per stub AS at its home metro. ---
  std::vector<UserGroup> ugs;
  for (util::AsId as : g.AsesOfTier(topo::AsTier::kStub)) {
    const topo::AsInfo& info = g.info(as);
    const double metro_w = metros[info.presence.front().value()].population_weight;
    const double volume =
        metro_w * rng.Pareto(1.0, config.ug_volume_pareto_alpha);
    ugs.push_back(UserGroup{
        .id = util::UgId{static_cast<std::uint32_t>(ugs.size())},
        .as = as,
        .metro = info.presence.front(),
        .traffic_weight = volume,
    });
  }

  return Deployment{cloud, std::move(pops), std::move(peerings),
                    std::move(ugs)};
}

}  // namespace painter::cloudsim
