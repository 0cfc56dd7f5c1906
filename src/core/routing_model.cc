#include "core/routing_model.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace painter::core {

RoutingModel::RoutingModel(std::size_t ug_count)
    : prefers_(ug_count), measured_(ug_count) {}

bool RoutingModel::ObservePreference(
    std::uint32_t ug, util::PeeringId chosen,
    std::span<const util::PeeringId> candidates) {
  static obs::Counter& learned =
      obs::Metrics().GetCounter("model.preferences_learned");
  auto& set = prefers_.at(ug);
  const auto storable = [](util::PeeringId id) {
    return id.value() < kMaxSessions;
  };
  if (!storable(chosen) || !std::ranges::all_of(candidates, storable)) {
    throw std::out_of_range{
        "RoutingModel: ingress id does not fit a 16-bit pair key"};
  }
  bool changed = false;
  for (util::PeeringId other : candidates) {
    if (other == chosen) continue;
    const std::uint32_t key = PairKey(chosen, other);
    const auto it = std::lower_bound(set.begin(), set.end(), key);
    if (it == set.end() || *it != key) {
      set.insert(it, key);
      ++preference_count_;
      learned.Add();
      changed = true;
    }
    // Observations are ground truth; retract any stale opposite belief.
    const std::uint32_t opposite = PairKey(other, chosen);
    const auto oit = std::lower_bound(set.begin(), set.end(), opposite);
    if (oit != set.end() && *oit == opposite) {
      set.erase(oit);
      --preference_count_;
      changed = true;
    }
  }
  return changed;
}

bool RoutingModel::ObserveLatency(std::uint32_t ug, util::PeeringId ingress,
                                  double rtt_ms, double epsilon_ms) {
  static obs::Counter& observed =
      obs::Metrics().GetCounter("model.rtt_observations");
  observed.Add();
  const auto [it, inserted] = measured_.at(ug).try_emplace(ingress.value(), rtt_ms);
  if (inserted) return true;
  // A re-measurement within the noise floor keeps the stored value: storing
  // every sub-epsilon wiggle would re-dirty the cross-call seed cache each
  // round from ping jitter alone. epsilon 0 = any change counts (legacy).
  if (std::abs(it->second - rtt_ms) <= epsilon_ms) return false;
  it->second = rtt_ms;
  return true;
}

bool RoutingModel::IsDominated(
    std::uint32_t ug, util::PeeringId candidate,
    std::span<const util::PeeringId> active) const {
  if (prefers_.at(ug).empty()) return false;
  for (util::PeeringId other : active) {
    if (other == candidate) continue;
    if (Prefers(ug, other, candidate)) return true;
  }
  return false;
}

std::optional<double> RoutingModel::MeasuredRtt(std::uint32_t ug,
                                                util::PeeringId ingress) const {
  const auto& m = measured_.at(ug);
  const auto it = m.find(ingress.value());
  if (it == m.end()) return std::nullopt;
  return it->second;
}

PrefixExpectation ComputeExpectationFromCandidates(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const IngressOption* const> candidates,
    const ExpectationParams& params) {
  PrefixExpectation out;
  if (candidates.empty()) return out;

  struct Cand {
    const IngressOption* opt;
    double rtt;
  };
  // Reused scratch: the greedy inner loop calls this millions of times.
  thread_local std::vector<Cand> cands;
  thread_local std::vector<util::PeeringId> active;
  cands.clear();
  for (const IngressOption* opt : candidates) {
    const auto measured = model.MeasuredRtt(ug, opt->peering);
    cands.push_back(Cand{opt, measured.value_or(opt->rtt_ms)});
  }

  // Preference exclusion: drop candidates dominated by another candidate the
  // UG is known to prefer.
  if (cands.size() > 1) {
    active.clear();
    for (const Cand& c : cands) active.push_back(c.opt->peering);
    std::erase_if(cands, [&](const Cand& c) {
      return model.IsDominated(ug, c.opt->peering, active);
    });
    if (cands.empty()) return out;
  }

  // D_reuse exclusion: drop candidates whose PoP is more than D_reuse km
  // farther from the UG than the closest surviving candidate PoP.
  if (cands.size() > 1) {
    double min_km = cands.front().opt->distance_km;
    for (const Cand& c : cands) min_km = std::min(min_km, c.opt->distance_km);
    std::erase_if(cands, [&](const Cand& c) {
      return c.opt->distance_km - min_km > params.d_reuse_km;
    });
  }

  out.usable = true;
  out.candidate_count = cands.size();
  out.lower_rtt = cands.front().rtt;
  out.upper_rtt = cands.front().rtt;
  double sum = 0.0;
  double wsum = 0.0;
  double wnorm = 0.0;
  double min_km = cands.front().opt->distance_km;
  for (const Cand& c : cands) min_km = std::min(min_km, c.opt->distance_km);
  for (const Cand& c : cands) {
    out.lower_rtt = std::min(out.lower_rtt, c.rtt);
    out.upper_rtt = std::max(out.upper_rtt, c.rtt);
    sum += c.rtt;
    const double w =
        std::exp(-(c.opt->distance_km - min_km) / params.inflation_decay_km);
    wsum += w * c.rtt;
    wnorm += w;
  }
  out.mean_rtt = sum / static_cast<double>(cands.size());
  out.estimated_rtt = wnorm == 0.0 ? out.mean_rtt : wsum / wnorm;
  return out;
}

PrefixExpectation ComputeExpectationAttributed(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const AdvertisedOption> candidates,
    const ExpectationParams& params) {
  if (candidates.empty()) return {};

  // Attribute tiering: drop no-export candidates the UG cannot hear, then
  // keep only the best (lower-pref, prepend) tier present. Both passes
  // leave all-default candidate lists untouched, so the legacy action space
  // delegates unchanged.
  thread_local std::vector<const IngressOption*> surviving;
  surviving.clear();
  int best_tier = INT_MAX;
  for (const AdvertisedOption& a : candidates) {
    if (a.no_export && !a.opt->in_peer_cone) continue;
    const int tier = (a.lower_pref ? 1 : 0) * 256 + a.prepend;
    best_tier = std::min(best_tier, tier);
  }
  for (const AdvertisedOption& a : candidates) {
    if (a.no_export && !a.opt->in_peer_cone) continue;
    const int tier = (a.lower_pref ? 1 : 0) * 256 + a.prepend;
    if (tier == best_tier) surviving.push_back(a.opt);
  }
  return ComputeExpectationFromCandidates(model, ug, surviving, params);
}

PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    const ExpectationParams& params) {
  const auto& opts = instance.options.at(ug);
  if (opts.empty() || advertised_sessions.empty()) return {};

  // Candidates: compliant options ∩ advertised sessions (both sorted by id).
  thread_local std::vector<const IngressOption*> isect;
  isect.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < opts.size() && j < advertised_sessions.size()) {
    if (opts[i].peering < advertised_sessions[j]) {
      ++i;
    } else if (advertised_sessions[j] < opts[i].peering) {
      ++j;
    } else {
      isect.push_back(&opts[i]);
      ++i;
      ++j;
    }
  }
  return ComputeExpectationFromCandidates(model, ug, isect, params);
}

PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    std::span<const SessionAttr> attrs, const ExpectationParams& params) {
  if (attrs.empty()) {
    return ComputeExpectation(instance, model, ug, advertised_sessions,
                              params);
  }
  const auto& opts = instance.options.at(ug);
  if (opts.empty() || advertised_sessions.empty()) return {};

  thread_local std::vector<AdvertisedOption> isect;
  isect.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < opts.size() && j < advertised_sessions.size()) {
    if (opts[i].peering < advertised_sessions[j]) {
      ++i;
    } else if (advertised_sessions[j] < opts[i].peering) {
      ++j;
    } else {
      const SessionAttr& a = attrs[j];
      isect.push_back(AdvertisedOption{
          .opt = &opts[i],
          .prepend = a.prepend,
          .lower_pref = a.community == bgpsim::Community::kLowerPref,
          .no_export = a.community == bgpsim::Community::kNoExportUp});
      ++i;
      ++j;
    }
  }
  return ComputeExpectationAttributed(model, ug, isect, params);
}

}  // namespace painter::core
