#include "core/baselines.h"

#include <algorithm>
#include <map>

namespace painter::core {
namespace {

// Ranks PoPs by the traffic weight of UGs for which that PoP hosts the UG's
// best compliant option — a proxy for "PoP value" used to order per-PoP
// prefixes under a budget.
std::vector<util::PopId> RankPops(const cloudsim::Deployment& deployment,
                                  const ProblemInstance& instance) {
  std::vector<double> value(deployment.pops().size(), 0.0);
  for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
    const auto& opts = instance.options[u];
    if (opts.empty()) continue;
    const IngressOption* best = &opts.front();
    for (const IngressOption& o : opts) {
      if (o.rtt_ms < best->rtt_ms) best = &o;
    }
    const util::PopId pop = deployment.peering(best->peering).pop;
    value[pop.value()] += instance.ug_weight[u];
  }
  std::vector<util::PopId> order;
  order.reserve(value.size());
  for (std::uint32_t i = 0; i < value.size(); ++i) order.push_back(util::PopId{i});
  std::sort(order.begin(), order.end(), [&](util::PopId a, util::PopId b) {
    if (value[a.value()] != value[b.value()]) {
      return value[a.value()] > value[b.value()];
    }
    return a < b;
  });
  return order;
}

std::vector<util::PeeringId> SessionsAtPop(
    const cloudsim::Deployment& deployment, util::PopId pop) {
  std::vector<util::PeeringId> out;
  for (const cloudsim::Peering& p : deployment.peerings()) {
    if (p.pop == pop) out.push_back(p.id);
  }
  return out;
}

}  // namespace

AdvertisementConfig AnycastConfig(const cloudsim::Deployment& deployment) {
  AdvertisementConfig cfg;
  std::vector<util::PeeringId> all;
  all.reserve(deployment.peerings().size());
  for (const auto& p : deployment.peerings()) all.push_back(p.id);
  cfg.AddPrefix(std::move(all));
  return cfg;
}

AdvertisementConfig OnePerPop(const cloudsim::Deployment& deployment,
                              const ProblemInstance& instance,
                              std::size_t budget) {
  AdvertisementConfig cfg;
  const auto order = RankPops(deployment, instance);
  for (std::size_t i = 0; i < budget && i < order.size(); ++i) {
    auto sessions = SessionsAtPop(deployment, order[i]);
    if (!sessions.empty()) cfg.AddPrefix(std::move(sessions));
  }
  return cfg;
}

AdvertisementConfig OnePerPopWithReuse(const topo::Internet& internet,
                                       const cloudsim::Deployment& deployment,
                                       const ProblemInstance& instance,
                                       std::size_t budget, double d_reuse_km) {
  // Greedy packing: walk PoPs in value order; place each into the first
  // prefix whose existing PoPs are all at least D_reuse away; open a new
  // prefix when allowed by the budget, else skip the PoP.
  const auto order = RankPops(deployment, instance);
  auto pop_km = [&](util::PopId a, util::PopId b) {
    return internet
        .MetroKm(deployment.pop(a).metro, deployment.pop(b).metro)
        .count();
  };

  std::vector<std::vector<util::PopId>> groups;
  for (util::PopId pop : order) {
    bool placed = false;
    for (auto& grp : groups) {
      const bool far_enough =
          std::all_of(grp.begin(), grp.end(), [&](util::PopId other) {
            return pop_km(pop, other) >= d_reuse_km;
          });
      if (far_enough) {
        grp.push_back(pop);
        placed = true;
        break;
      }
    }
    if (!placed && groups.size() < budget) groups.push_back({pop});
  }

  AdvertisementConfig cfg;
  for (const auto& grp : groups) {
    std::vector<util::PeeringId> sessions;
    for (util::PopId pop : grp) {
      auto s = SessionsAtPop(deployment, pop);
      sessions.insert(sessions.end(), s.begin(), s.end());
    }
    if (!sessions.empty()) cfg.AddPrefix(std::move(sessions));
  }
  return cfg;
}

AdvertisementConfig OnePerPeering(const cloudsim::Deployment& deployment,
                                  const ProblemInstance& instance,
                                  std::size_t budget) {
  // Score each session by its standalone weighted improvement over anycast.
  std::vector<double> score(deployment.peerings().size(), 0.0);
  for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
    for (const IngressOption& o : instance.options[u]) {
      score[o.peering.value()] +=
          instance.ug_weight[u] *
          std::max(0.0, instance.anycast_rtt_ms[u] - o.rtt_ms);
    }
  }
  std::vector<util::PeeringId> order;
  order.reserve(score.size());
  for (std::uint32_t i = 0; i < score.size(); ++i) {
    order.push_back(util::PeeringId{i});
  }
  std::sort(order.begin(), order.end(), [&](util::PeeringId a, util::PeeringId b) {
    if (score[a.value()] != score[b.value()]) {
      return score[a.value()] > score[b.value()];
    }
    return a < b;
  });

  AdvertisementConfig cfg;
  for (std::size_t i = 0; i < budget && i < order.size(); ++i) {
    if (score[order[i].value()] <= 0.0) break;  // no session left that helps
    cfg.AddPrefix({order[i]});
  }
  return cfg;
}

AdvertisementConfig RegionalTransit(const topo::Internet& internet,
                                    const cloudsim::Deployment& deployment,
                                    std::size_t regions) {
  if (regions == 0 || deployment.pops().empty()) return {};
  auto pop_km = [&](const cloudsim::Pop& a, const cloudsim::Pop& b) {
    return internet.MetroKm(a.metro, b.metro).count();
  };

  // Farthest-point seeding, then nearest-seed assignment: a simple,
  // deterministic regionalization of the PoP footprint.
  std::vector<std::size_t> seeds{0};
  while (seeds.size() < std::min(regions, deployment.pops().size())) {
    std::size_t farthest = 0;
    double far_d = -1.0;
    for (std::size_t i = 0; i < deployment.pops().size(); ++i) {
      double nearest = 1e18;
      for (std::size_t s : seeds) {
        nearest = std::min(
            nearest, pop_km(deployment.pops()[i], deployment.pops()[s]));
      }
      if (nearest > far_d) {
        far_d = nearest;
        farthest = i;
      }
    }
    seeds.push_back(farthest);
  }

  std::vector<std::vector<util::PeeringId>> groups(seeds.size());
  for (util::PeeringId pid : deployment.TransitPeerings()) {
    const cloudsim::Peering& sess = deployment.peering(pid);
    const cloudsim::Pop& pop = deployment.pop(sess.pop);
    std::size_t best = 0;
    double best_d = 1e18;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const double d = pop_km(pop, deployment.pops()[seeds[s]]);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    groups[best].push_back(pid);
  }

  AdvertisementConfig cfg;
  for (auto& grp : groups) {
    if (!grp.empty()) cfg.AddPrefix(std::move(grp));
  }
  return cfg;
}

}  // namespace painter::core
