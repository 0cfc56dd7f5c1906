#include "core/sim_environment.h"

namespace painter::core {

std::vector<AdvertisementEnvironment::PrefixObservation>
SimEnvironment::Execute(const AdvertisementConfig& config) {
  std::vector<PrefixObservation> out;
  out.reserve(config.PrefixCount());
  const std::size_t n_ug = oracle_->deployment().ugs().size();

  std::vector<measure::UgPeering> routed;
  for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
    PrefixObservation obs;
    obs.ingress_of_ug =
        resolver_->Resolve(config.Sessions(p), config.NeighborAttrs(p));
    obs.rtt_ms_of_ug.assign(n_ug, 0.0);
    routed.clear();
    for (std::uint32_t u = 0; u < n_ug; ++u) {
      if (obs.ingress_of_ug[u].has_value()) {
        routed.push_back({util::UgId{u}, *obs.ingress_of_ug[u]});
      }
    }
    const auto measured =
        oracle_->MeasureMinEach(routed, rng_, ping_count_, day_);
    for (std::size_t i = 0; i < routed.size(); ++i) {
      obs.rtt_ms_of_ug[routed[i].ug.value()] = measured[i].count();
    }
    out.push_back(std::move(obs));
  }
  return out;
}

}  // namespace painter::core
