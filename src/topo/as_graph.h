// AS-level Internet topology with business relationships.
//
// PAINTER's advertisement reasoning is built on interdomain routing policy:
// which peerings are policy-compliant ingresses for a user group is derived
// from BGP feeds and from *customer cones* computed over AS relationships
// (§3.1, using ProbLink-style inference in the paper; here relationships are
// ground truth because we generate the topology). The graph stores
// customer→provider and peer→peer edges and answers cone/reachability queries.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "topo/geo.h"
#include "util/ids.h"

namespace painter::topo {

enum class AsTier : std::uint8_t {
  kTier1,     // global transit-free backbone, fully meshed peers
  kTransit,   // national/continental transit provider
  kRegional,  // regional ISP
  kStub,      // enterprise / eyeball network (UGs live here)
  kCloud,     // the cloud provider running PAINTER
};

// How an AS picks its exit point toward a destination reachable at several of
// its interconnection locations. Early-exit (hot potato) is the common case;
// fixed-exit models coarse intra-AS routing that drags traffic to a preferred
// region first — the paper observed transit providers "inflate routes even
// over very large distances" (§5.1.2).
enum class ExitPolicy : std::uint8_t { kEarlyExit, kFixedExit };

struct AsInfo {
  util::AsId id;
  AsTier tier = AsTier::kStub;
  std::string name;
  // Metros where this AS has routers; peerings with the cloud can exist only
  // in presence metros.
  std::vector<util::MetroId> presence;
  ExitPolicy exit_policy = ExitPolicy::kEarlyExit;
  // For kFixedExit: traffic funnels through the presence metro nearest this.
  util::MetroId exit_bias;
};

class AsGraph {
 public:
  // Adds an AS and returns its id (ids are dense, assigned sequentially).
  util::AsId AddAs(AsTier tier, std::string name,
                   std::vector<util::MetroId> presence,
                   ExitPolicy exit_policy = ExitPolicy::kEarlyExit,
                   util::MetroId exit_bias = util::MetroId{});

  // Records a customer→provider relationship (customer pays provider).
  void AddProviderEdge(util::AsId provider, util::AsId customer);

  // Records a settlement-free peer↔peer relationship.
  void AddPeerEdge(util::AsId a, util::AsId b);

  [[nodiscard]] std::size_t size() const { return infos_.size(); }
  [[nodiscard]] const AsInfo& info(util::AsId id) const;

  [[nodiscard]] const std::vector<util::AsId>& providers(util::AsId id) const;
  [[nodiscard]] const std::vector<util::AsId>& customers(util::AsId id) const;
  [[nodiscard]] const std::vector<util::AsId>& peers(util::AsId id) const;

  // True if `descendant` can reach `ancestor` by following only
  // customer→provider links (i.e. descendant is in ancestor's customer cone).
  // Cones are computed lazily and cached; an AS is in its own cone.
  [[nodiscard]] bool InCustomerCone(util::AsId descendant,
                                    util::AsId ancestor) const;

  // All ASes in `root`'s customer cone, including `root`.
  [[nodiscard]] std::vector<util::AsId> CustomerCone(util::AsId root) const;

  // Drops cached cones; called automatically by mutators. No per-AS work
  // when no cone is cached: the cache is sized by the first cone query.
  void InvalidateCaches();

  [[nodiscard]] std::vector<util::AsId> AsesOfTier(AsTier tier) const;

 private:
  void CheckId(util::AsId id) const;
  const std::unordered_set<std::uint32_t>& ConeSet(util::AsId root) const;

  std::vector<AsInfo> infos_;
  std::vector<std::vector<util::AsId>> providers_;
  std::vector<std::vector<util::AsId>> customers_;
  std::vector<std::vector<util::AsId>> peers_;

  // Lazy per-root cone cache (root id -> set of member ids). Both vectors
  // are empty until the first cone query after a mutation, which sizes them
  // to the graph; building a graph therefore never touches them.
  mutable std::vector<std::unordered_set<std::uint32_t>> cone_cache_;
  mutable std::vector<bool> cone_cached_;
};

}  // namespace painter::topo
