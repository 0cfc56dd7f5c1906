// The orchestrator's view of the world: a ProblemInstance.
//
// Alg. 1 consumes, per user group: its traffic weight w(UG) (Eq. 1), the
// catalog of policy-compliant ingresses with an RTT estimate for each, the
// UG→PoP distance of each option (for the D_reuse exclusion and the
// inflation-likelihood weighting of §5.1.2), and the anycast baseline RTT.
//
// Two builders mirror the paper's two evaluation settings:
//  - BuildMeasuredInstance: the PEERING-prototype setting — RTTs come from
//    actual min-of-7 probe measurements through each compliant ingress.
//  - BuildEstimatedInstance: the Azure setting — advertisements were not
//    possible, so RTTs come from the Appendix-B geolocation-target heuristic
//    at a chosen uncertainty bound GP; options whose session has no usable
//    target are dropped (the paper covered 80.6% of traffic at GP = 450 km).
#pragma once

#include <cstdint>
#include <vector>

#include "cloudsim/ingress.h"
#include "measure/geolocation.h"
#include "measure/latency.h"

namespace painter::core {

struct IngressOption {
  util::PeeringId peering;
  double rtt_ms = 0.0;       // estimated or measured RTT through this ingress
  double distance_km = 0.0;  // great-circle UG→PoP distance
  // True iff the UG's AS is the session's peer or inside its customer cone.
  // A kNoExportUp announcement via this session can only attract such UGs
  // (transit sessions are compliant for everyone, but no-export confines
  // even them to the peer's cone) — the attributed expectation model filters
  // on this flag.
  bool in_peer_cone = false;
};

struct ProblemInstance {
  // Indexed by UG id value.
  std::vector<double> ug_weight;
  std::vector<double> anycast_rtt_ms;
  // Per UG: compliant ingress options, sorted by peering id. The inverted
  // index (peering -> UGs) is FlatPeeringIndex, built from these.
  std::vector<std::vector<IngressOption>> options;

  std::size_t peering_count = 0;
  double total_weight = 0.0;

  [[nodiscard]] std::size_t UgCount() const { return ug_weight.size(); }

  // The option entry for (ug, peering), or nullptr if not compliant/covered.
  [[nodiscard]] const IngressOption* Option(std::uint32_t ug,
                                            util::PeeringId peering) const;

  // Sum over UGs of w * max(0, anycast - best option): the total possible
  // benefit against which Fig. 6a/9b/14 normalize, divided by total weight
  // (i.e. a weighted-average improvement in ms).
  [[nodiscard]] double TotalPossibleBenefitMs() const;
};

// The inverted index, flat and contiguous for the orchestrator's hot loops:
// one entry per (UG, compliant option). Peering g's entries live in
// [offset[g], offset[g+1]) of the parallel arrays `ug` / `option`, listing
// each UG that has g among its compliant options (ascending UG id) and a
// pointer to that option entry. The UG-major view lists the same entries by
// UG: UG u's are entry[ug_first[u] .. ug_first[u+1]), in the order of its
// options. Built from `options` alone, so it stays consistent for instances
// filtered after construction (fig15's peer subsampling erases options and
// rebuilds orchestrators). Throws std::length_error past 2^32 - 1 entries.
struct FlatPeeringIndex {
  explicit FlatPeeringIndex(const ProblemInstance& instance);

  std::vector<std::size_t> offset;           // peering_count + 1 entries
  std::vector<std::uint32_t> ug;             // UG id value per entry
  std::vector<const IngressOption*> option;  // the (ug, peering) option
  std::vector<std::uint32_t> ug_first;       // UgCount() + 1 entries
  std::vector<std::uint32_t> entry;          // entry index, UG-major

  [[nodiscard]] std::size_t EntryCount() const { return ug.size(); }
};

// Prototype setting: probe each compliant ingress (min of `ping_count`).
[[nodiscard]] ProblemInstance BuildMeasuredInstance(
    const topo::Internet& internet, const cloudsim::Deployment& deployment,
    const cloudsim::PolicyCatalog& catalog,
    const cloudsim::IngressResolver& resolver,
    const measure::LatencyOracle& oracle, util::Rng& rng, int ping_count = 7);

// Azure setting: estimate through geolocated targets within `gp_km`.
[[nodiscard]] ProblemInstance BuildEstimatedInstance(
    const topo::Internet& internet, const cloudsim::Deployment& deployment,
    const cloudsim::PolicyCatalog& catalog,
    const cloudsim::IngressResolver& resolver,
    const measure::LatencyOracle& oracle,
    const measure::GeoTargetCatalog& targets, util::Rng& rng, double gp_km);

}  // namespace painter::core
