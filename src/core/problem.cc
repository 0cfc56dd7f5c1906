#include "core/problem.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/trace.h"

namespace painter::core {
namespace {

// Anycast baseline: resolve the all-sessions announcement and measure the
// chosen ingress for each UG. Anycast is deployed in both evaluation
// settings, so its latency is always a real measurement.
std::vector<double> MeasureAnycast(const cloudsim::Deployment& deployment,
                                   const cloudsim::IngressResolver& resolver,
                                   const measure::LatencyOracle& oracle,
                                   util::Rng& rng, int ping_count) {
  std::vector<util::PeeringId> all;
  all.reserve(deployment.peerings().size());
  for (const auto& p : deployment.peerings()) all.push_back(p.id);
  const auto ingress = resolver.Resolve(all);

  // No route at all under anycast: treat as unreachable (huge RTT) so any
  // exposed path is an improvement.
  std::vector<double> rtt(deployment.ugs().size(), 1e6);
  std::vector<measure::UgPeering> routed;
  for (const auto& ug : deployment.ugs()) {
    const auto& choice = ingress[ug.id.value()];
    if (choice.has_value()) routed.push_back({ug.id, *choice});
  }
  const auto measured = oracle.MeasureMinEach(routed, rng, ping_count);
  for (std::size_t i = 0; i < routed.size(); ++i) {
    rtt[routed[i].ug.value()] = measured[i].count();
  }
  return rtt;
}

double UgToPopKm(const topo::Internet& internet,
                 const cloudsim::Deployment& deployment,
                 const cloudsim::UserGroup& ug, util::PeeringId peering) {
  const auto& pop = deployment.pop(deployment.peering(peering).pop);
  return internet.MetroKm(ug.metro, pop.metro).count();
}

bool InPeerCone(const topo::Internet& internet,
                const cloudsim::Deployment& deployment,
                const cloudsim::UserGroup& ug, util::PeeringId peering) {
  const util::AsId peer = deployment.peering(peering).peer;
  return ug.as == peer || internet.graph.InCustomerCone(ug.as, peer);
}

void Finalize(ProblemInstance& inst, const cloudsim::Deployment& deployment) {
  inst.peering_count = deployment.peerings().size();
  inst.total_weight = 0.0;
  for (std::uint32_t u = 0; u < inst.UgCount(); ++u) {
    inst.total_weight += inst.ug_weight[u];
    std::sort(inst.options[u].begin(), inst.options[u].end(),
              [](const IngressOption& a, const IngressOption& b) {
                return a.peering < b.peering;
              });
  }
}

}  // namespace

const IngressOption* ProblemInstance::Option(std::uint32_t ug,
                                             util::PeeringId peering) const {
  const auto& opts = options.at(ug);
  const auto it = std::lower_bound(
      opts.begin(), opts.end(), peering,
      [](const IngressOption& o, util::PeeringId p) { return o.peering < p; });
  if (it == opts.end() || it->peering != peering) return nullptr;
  return &*it;
}

double ProblemInstance::TotalPossibleBenefitMs() const {
  double acc = 0.0;
  for (std::uint32_t u = 0; u < UgCount(); ++u) {
    if (options[u].empty()) continue;
    double best = anycast_rtt_ms[u];
    for (const IngressOption& opt : options[u]) {
      best = std::min(best, opt.rtt_ms);
    }
    acc += ug_weight[u] * (anycast_rtt_ms[u] - best);
  }
  return total_weight == 0.0 ? 0.0 : acc / total_weight;
}

FlatPeeringIndex::FlatPeeringIndex(const ProblemInstance& instance) {
  offset.assign(instance.peering_count + 1, 0);
  for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
    for (const IngressOption& opt : instance.options[u]) {
      ++offset[opt.peering.value() + 1];
    }
  }
  for (std::size_t g = 1; g < offset.size(); ++g) offset[g] += offset[g - 1];
  if (offset.back() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"FlatPeeringIndex: more than 2^32 - 1 entries"};
  }
  ug.resize(offset.back());
  option.resize(offset.back());
  ug_first.assign(instance.UgCount() + 1, 0);
  entry.reserve(offset.back());
  std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
  for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
    for (const IngressOption& opt : instance.options[u]) {
      const std::size_t slot = cursor[opt.peering.value()]++;
      ug[slot] = u;
      option[slot] = &opt;
      entry.push_back(static_cast<std::uint32_t>(slot));
    }
    ug_first[u + 1] = static_cast<std::uint32_t>(entry.size());
  }
}

ProblemInstance BuildMeasuredInstance(
    const topo::Internet& internet, const cloudsim::Deployment& deployment,
    const cloudsim::PolicyCatalog& catalog,
    const cloudsim::IngressResolver& resolver,
    const measure::LatencyOracle& oracle, util::Rng& rng, int ping_count) {
  const obs::TraceSpan span{"core.BuildMeasuredInstance"};
  ProblemInstance inst;
  const auto& ugs = deployment.ugs();
  inst.ug_weight.resize(ugs.size());
  inst.options.resize(ugs.size());
  {
    const obs::TraceSpan anycast_span{"core.BuildMeasuredInstance.anycast"};
    inst.anycast_rtt_ms =
        MeasureAnycast(deployment, resolver, oracle, rng, ping_count);
  }

  const obs::TraceSpan options_span{"core.BuildMeasuredInstance.options"};
  for (const auto& ug : ugs) {
    inst.ug_weight[ug.id.value()] = ug.traffic_weight;
    auto& opts = inst.options[ug.id.value()];
    const auto compliant = catalog.CompliantPeerings(ug.id);
    const auto rtts = oracle.MeasureMinEach(ug.id, compliant, rng, ping_count);
    opts.reserve(compliant.size());
    for (std::size_t i = 0; i < compliant.size(); ++i) {
      const util::PeeringId pid = compliant[i];
      opts.push_back(IngressOption{
          .peering = pid,
          .rtt_ms = rtts[i].count(),
          .distance_km = UgToPopKm(internet, deployment, ug, pid),
          .in_peer_cone = InPeerCone(internet, deployment, ug, pid)});
    }
  }
  Finalize(inst, deployment);
  return inst;
}

ProblemInstance BuildEstimatedInstance(
    const topo::Internet& internet, const cloudsim::Deployment& deployment,
    const cloudsim::PolicyCatalog& catalog,
    const cloudsim::IngressResolver& resolver,
    const measure::LatencyOracle& oracle,
    const measure::GeoTargetCatalog& targets, util::Rng& rng, double gp_km) {
  const obs::TraceSpan span{"core.BuildEstimatedInstance"};
  ProblemInstance inst;
  const auto& ugs = deployment.ugs();
  inst.ug_weight.resize(ugs.size());
  inst.options.resize(ugs.size());
  inst.anycast_rtt_ms = MeasureAnycast(deployment, resolver, oracle, rng, 7);

  for (const auto& ug : ugs) {
    inst.ug_weight[ug.id.value()] = ug.traffic_weight;
    auto& opts = inst.options[ug.id.value()];
    for (util::PeeringId pid : catalog.CompliantPeerings(ug.id)) {
      const auto est = targets.EstimateRtt(ug.id, pid, gp_km);
      if (!est.has_value()) continue;  // no target within GP: not covered
      opts.push_back(IngressOption{
          .peering = pid,
          .rtt_ms = est->count(),
          .distance_km = UgToPopKm(internet, deployment, ug, pid),
          .in_peer_cone = InPeerCone(internet, deployment, ug, pid)});
    }
  }
  Finalize(inst, deployment);
  return inst;
}

}  // namespace painter::core
