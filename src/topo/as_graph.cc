#include "topo/as_graph.h"

#include <stdexcept>

namespace painter::topo {

util::AsId AsGraph::AddAs(AsTier tier, std::string name,
                          std::vector<util::MetroId> presence,
                          ExitPolicy exit_policy, util::MetroId exit_bias) {
  const util::AsId id{static_cast<std::uint32_t>(infos_.size())};
  if (presence.empty()) {
    throw std::invalid_argument{"AddAs: AS must be present in >=1 metro"};
  }
  infos_.push_back(AsInfo{.id = id,
                          .tier = tier,
                          .name = std::move(name),
                          .presence = std::move(presence),
                          .exit_policy = exit_policy,
                          .exit_bias = exit_bias});
  providers_.emplace_back();
  customers_.emplace_back();
  peers_.emplace_back();
  InvalidateCaches();
  return id;
}

void AsGraph::CheckId(util::AsId id) const {
  if (!id.valid() || id.value() >= infos_.size()) {
    throw std::out_of_range{"AsGraph: unknown AS id"};
  }
}

void AsGraph::AddProviderEdge(util::AsId provider, util::AsId customer) {
  CheckId(provider);
  CheckId(customer);
  if (provider == customer) {
    throw std::invalid_argument{"AddProviderEdge: self edge"};
  }
  customers_[provider.value()].push_back(customer);
  providers_[customer.value()].push_back(provider);
  InvalidateCaches();
}

void AsGraph::AddPeerEdge(util::AsId a, util::AsId b) {
  CheckId(a);
  CheckId(b);
  if (a == b) throw std::invalid_argument{"AddPeerEdge: self edge"};
  peers_[a.value()].push_back(b);
  peers_[b.value()].push_back(a);
  InvalidateCaches();
}

const AsInfo& AsGraph::info(util::AsId id) const {
  CheckId(id);
  return infos_[id.value()];
}

const std::vector<util::AsId>& AsGraph::providers(util::AsId id) const {
  CheckId(id);
  return providers_[id.value()];
}

const std::vector<util::AsId>& AsGraph::customers(util::AsId id) const {
  CheckId(id);
  return customers_[id.value()];
}

const std::vector<util::AsId>& AsGraph::peers(util::AsId id) const {
  CheckId(id);
  return peers_[id.value()];
}

void AsGraph::InvalidateCaches() {
  cone_cache_.clear();
  cone_cached_.clear();
}

const std::unordered_set<std::uint32_t>& AsGraph::ConeSet(
    util::AsId root) const {
  CheckId(root);
  if (cone_cached_.empty()) {
    cone_cache_.resize(infos_.size());
    cone_cached_.assign(infos_.size(), false);
  }
  if (!cone_cached_[root.value()]) {
    // Depth-first walk over customer edges. The relationship graph is a DAG
    // in practice; visited-set also guards against accidental cycles.
    std::unordered_set<std::uint32_t>& cone = cone_cache_[root.value()];
    std::vector<util::AsId> stack{root};
    while (!stack.empty()) {
      const util::AsId cur = stack.back();
      stack.pop_back();
      if (!cone.insert(cur.value()).second) continue;
      for (util::AsId c : customers_[cur.value()]) stack.push_back(c);
    }
    cone_cached_[root.value()] = true;
  }
  return cone_cache_[root.value()];
}

bool AsGraph::InCustomerCone(util::AsId descendant, util::AsId ancestor) const {
  CheckId(descendant);
  return ConeSet(ancestor).contains(descendant.value());
}

std::vector<util::AsId> AsGraph::CustomerCone(util::AsId root) const {
  const auto& set = ConeSet(root);
  std::vector<util::AsId> out;
  out.reserve(set.size());
  for (std::uint32_t v : set) out.push_back(util::AsId{v});
  return out;
}

std::vector<util::AsId> AsGraph::AsesOfTier(AsTier tier) const {
  std::vector<util::AsId> out;
  for (const auto& info : infos_) {
    if (info.tier == tier) out.push_back(info.id);
  }
  return out;
}

}  // namespace painter::topo
