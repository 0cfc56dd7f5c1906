// Synthetic Internet generator.
//
// The paper evaluates against the real Internet (Azure BGP feeds, the PEERING
// testbed). That substrate is a deployment gate for a reproduction, so we
// generate a structurally similar internetwork: a small clique of tier-1
// backbones, a layer of transit providers, regional ISPs, and thousands of
// stub (enterprise / eyeball) networks with realistic multihoming — "most
// networks have only 2 or three ISPs" (§5.2.4). ASes are geo-embedded in the
// world metro catalog so that distance, and therefore latency and D_reuse,
// are meaningful.
#pragma once

#include <cstdint>

#include "topo/as_graph.h"
#include "util/rng.h"

namespace painter::topo {

struct InternetConfig {
  std::uint64_t seed = 1;

  std::size_t tier1_count = 10;
  std::size_t transit_count = 60;
  std::size_t regional_count = 240;
  std::size_t stub_count = 2400;

  // Multihoming distribution for stubs/regionals: probability of having
  // exactly 1, 2, 3, 4 providers (normalized internally).
  double provider_count_weights[4] = {0.45, 0.35, 0.15, 0.05};

  // Probability that two transit ASes sharing a metro peer with each other.
  double transit_peering_prob = 0.30;
  // Probability that two regional ASes sharing a metro peer with each other.
  double regional_peering_prob = 0.08;

  // Fraction of ASes per tier routing with a fixed (cold-potato) exit.
  // Kept modest: anycast reaches a nearby PoP for most users (§3, [21, 54]);
  // the dominant pathology is *which AS* carries the traffic, not which PoP.
  double tier1_fixed_exit_frac = 0.04;
  double transit_fixed_exit_frac = 0.06;
  double regional_fixed_exit_frac = 0.05;
};

struct Internet {
  std::vector<Metro> metros;
  // Great-circle distance of every ordered metro pair, row-major:
  // metro_km[a * metros.size() + b] is exactly Distance(metros[a].location,
  // metros[b].location). GenerateInternet fills it once, and every
  // metro-to-metro distance in the library reads it through MetroKm, so the
  // haversine runs once per pair instead of once per query.
  std::vector<util::Km> metro_km;
  AsGraph graph;

  [[nodiscard]] util::Km MetroKm(util::MetroId a, util::MetroId b) const {
    return metro_km[a.value() * metros.size() + b.value()];
  }
};

// Builds the internetwork deterministically from `config.seed`.
[[nodiscard]] Internet GenerateInternet(const InternetConfig& config);

}  // namespace painter::topo
