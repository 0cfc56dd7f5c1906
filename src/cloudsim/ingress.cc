#include "cloudsim/ingress.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace.h"
#include "util/hashmix.h"

namespace painter::cloudsim {

IngressResolver::IngressResolver(const topo::Internet& internet,
                                 const Deployment& deployment,
                                 ExitQuirkConfig quirks)
    : internet_(&internet), deployment_(&deployment), quirks_(quirks),
      engine_(internet.graph) {}

util::PeeringId IngressResolver::PickExit(
    util::AsId entry, util::MetroId ug_metro,
    std::span<const util::PeeringId> options) const {
  const topo::AsInfo& info = internet_->graph.info(entry);

  // Quirky (entry AS, client metro) pairs exit at their rendezvous-hash
  // session — stable across advertisement changes, so the orchestrator can
  // learn the preference, but frequently not the nearest PoP. Quirks stay at
  // continental scale (the paper's New York→Amsterdam example): antipodal
  // exits are excluded.
  if (options.size() > 1) {
    util::Rng qrng{util::MixSeed(quirks_.seed, 0x88, entry.value(),
                                    ug_metro.value())};
    if (qrng.Bernoulli(quirks_.quirk_prob)) {
      constexpr double kQuirkMaxKm = 7000.0;
      util::PeeringId best;
      std::uint64_t best_hash = 0;
      for (util::PeeringId pid : options) {
        const util::MetroId pop_metro =
            deployment_->pop(deployment_->peering(pid).pop).metro;
        if (internet_->MetroKm(ug_metro, pop_metro).count() > kQuirkMaxKm) {
          continue;
        }
        const std::uint64_t h = util::MixSeed(
            quirks_.seed, 0x99, util::MixSeed(entry.value(), ug_metro.value()),
            deployment_->peering(pid).pop.value());
        if (!best.valid() || h > best_hash) {
          best = pid;
          best_hash = h;
        }
      }
      if (best.valid()) return best;
    }
  }
  const util::MetroId target =
      info.exit_policy == topo::ExitPolicy::kEarlyExit ? ug_metro
                                                       : info.exit_bias;

  util::PeeringId best;
  double best_dist = 0.0;
  for (util::PeeringId pid : options) {
    const Peering& sess = deployment_->peering(pid);
    const double d =
        internet_->MetroKm(target, deployment_->pop(sess.pop).metro).count();
    if (!best.valid() || d < best_dist ||
        (d == best_dist && pid < best)) {
      best = pid;
      best_dist = d;
    }
  }
  return best;
}

IngressResolver::Result IngressResolver::ResolveWithRoutes(
    std::span<const util::PeeringId> advertised) const {
  return ResolveWithRoutes(advertised, {});
}

IngressResolver::Result IngressResolver::ResolveWithRoutes(
    std::span<const util::PeeringId> advertised,
    std::span<const bgpsim::NeighborAttr> attrs) const {
  const obs::TraceSpan span{"cloudsim.IngressResolver.Resolve"};
  if (!attrs.empty() && attrs.size() != advertised.size()) {
    throw std::invalid_argument{
        "ResolveWithRoutes: attrs size does not match advertised"};
  }
  // Group the advertised sessions by neighbor AS, in first-seen order. Each
  // AS's announcement takes the most attractive session key, and the
  // exit-choice bucket keeps only the sessions achieving it, in advertised
  // order: BGP selects per AS, hot potato breaks ties among the equally-best
  // sessions. key = (lower-pref, prepend) lexicographic — the order
  // `bgpsim::Preferred` applies within a relationship class. all_no_export
  // tracks whether every min-key session carries kNoExportUp (only then does
  // the AS's best direct route carry it; one exporting variant wins the
  // engine's seed dedupe). Without attributes every session reads as
  // default, as in BgpEngine::Propagate.
  struct AsAgg {
    std::pair<int, int> key;
    bool all_no_export = false;
    std::vector<util::PeeringId> options;
  };
  std::unordered_map<util::AsId, AsAgg> aggs;
  bgpsim::Announcement ann{.prefix = util::PrefixId{0},
                           .origin = deployment_->cloud_as(),
                           .to_neighbors = {}};
  for (std::size_t k = 0; k < advertised.size(); ++k) {
    const bgpsim::NeighborAttr a =
        attrs.empty() ? bgpsim::NeighborAttr{} : attrs[k];
    if (a.prepend == bgpsim::kPrependInfinity) continue;  // silent session
    const util::AsId peer = deployment_->peering(advertised[k]).peer;
    const std::pair<int, int> key{
        a.community == bgpsim::Community::kLowerPref ? 1 : 0, a.prepend};
    const bool nx = a.community == bgpsim::Community::kNoExportUp;
    const auto [it, inserted] = aggs.try_emplace(peer);
    AsAgg& e = it->second;
    if (inserted) ann.to_neighbors.push_back(peer);
    if (inserted || key < e.key) {
      e.key = key;
      e.all_no_export = nx;
      e.options.assign(1, advertised[k]);
    } else if (key == e.key) {
      e.all_no_export = e.all_no_export && nx;
      e.options.push_back(advertised[k]);
    }
  }
  for (const util::AsId peer : ann.to_neighbors) {
    const AsAgg& e = aggs.at(peer);
    bgpsim::NeighborAttr as_attr;
    as_attr.prepend = static_cast<std::uint8_t>(e.key.second);
    if (e.key.first == 1) {
      as_attr.community = bgpsim::Community::kLowerPref;
    } else if (e.all_no_export) {
      as_attr.community = bgpsim::Community::kNoExportUp;
    }
    ann.attrs.push_back(as_attr);
  }

  bgpsim::RoutingOutcome outcome = engine_.Propagate(ann);

  std::vector<std::optional<util::PeeringId>> ingress(
      deployment_->ugs().size());
  for (const UserGroup& ug : deployment_->ugs()) {
    if (!outcome.Reachable(ug.as)) continue;
    const auto entry = outcome.EntryAs(ug.as);
    if (!entry.has_value()) continue;
    const auto it = aggs.find(*entry);
    if (it == aggs.end()) continue;  // should not happen for valid outcomes
    ingress[ug.id.value()] = PickExit(*entry, ug.metro, it->second.options);
  }
  return Result{std::move(ingress), std::move(outcome)};
}

std::vector<std::optional<util::PeeringId>> IngressResolver::Resolve(
    std::span<const util::PeeringId> advertised) const {
  return ResolveWithRoutes(advertised).ingress_of_ug;
}

std::vector<std::optional<util::PeeringId>> IngressResolver::Resolve(
    std::span<const util::PeeringId> advertised,
    std::span<const bgpsim::NeighborAttr> attrs) const {
  return ResolveWithRoutes(advertised, attrs).ingress_of_ug;
}

PolicyCatalog::PolicyCatalog(const topo::Internet& internet,
                             const Deployment& deployment) {
  const topo::AsGraph& g = internet.graph;
  compliant_.resize(deployment.ugs().size());

  // Precompute, per distinct neighbor AS, whether each UG's AS is in its
  // customer cone; transit sessions are compliant for everyone.
  std::unordered_map<util::AsId, std::vector<util::PeeringId>> sessions_by_as;
  for (const Peering& p : deployment.peerings()) {
    sessions_by_as[p.peer].push_back(p.id);
  }
  for (const auto& [peer, sessions] : sessions_by_as) {
    const bool transit = deployment.peering(sessions.front()).transit;
    for (const UserGroup& ug : deployment.ugs()) {
      const bool direct = ug.as == peer;
      if (transit || direct || g.InCustomerCone(ug.as, peer)) {
        auto& list = compliant_[ug.id.value()];
        list.insert(list.end(), sessions.begin(), sessions.end());
      }
    }
  }
  for (auto& list : compliant_) std::sort(list.begin(), list.end());
}

bool PolicyCatalog::IsCompliant(util::UgId ug, util::PeeringId peering) const {
  const auto& list = compliant_.at(ug.value());
  return std::binary_search(list.begin(), list.end(), peering);
}

double PolicyCatalog::MeanCompliantPerUg() const {
  if (compliant_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& list : compliant_) total += list.size();
  return static_cast<double>(total) / static_cast<double>(compliant_.size());
}

}  // namespace painter::cloudsim
