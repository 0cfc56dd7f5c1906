// Fig. 15 (Appendix E.2): scaling and the D_reuse knob.
// (a) the prefixes PAINTER needs for 90/95/99% of its saturated benefit grow
//     roughly linearly with deployment size;
// (b) raising the minimum reuse distance D_reuse lowers benefit uncertainty
//     (fewer risky reuse assumptions) but costs more prefixes.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/strategy_eval.h"
#include "util/table.h"

namespace {

using namespace painter;

struct Solved {
  core::AdvertisementConfig config;
  core::ProblemInstance instance;
};

std::size_t PrefixesForPct(const core::ProblemInstance& instance,
                           const core::AdvertisementConfig& full,
                           double pct, double d_reuse) {
  const core::RoutingModel model{instance.UgCount()};
  const core::ExpectationParams params{.d_reuse_km = d_reuse};
  const double saturated =
      core::PredictBenefit(instance, model, full, params).mean_ms;
  for (std::size_t b = 1; b <= full.PrefixCount(); ++b) {
    const double v =
        core::PredictBenefit(instance, model, core::Truncate(full, b), params)
            .mean_ms;
    if (v >= pct * saturated) return b;
  }
  return full.PrefixCount();
}

}  // namespace

int main() {
  util::PrintFigureHeader(
      std::cout, "Figure 15a",
      "Prefixes required for 90/95/99% of saturated benefit vs deployment "
      "size.");

  // The paper subsamples its deployment's peers (x-axis: % of peers) and
  // reports the prefixes needed for 90/95/99% of the achievable benefit at
  // that subsample — more exposed peers means a longer tail of distinct UG
  // needs, so required prefixes grow with deployment size.
  auto w = bench::PrototypeWorld(404);
  util::Rng rng{17};
  const auto full_instance = core::BuildMeasuredInstance(
      w.internet(), *w.deployment, *w.catalog, *w.resolver, *w.oracle, rng);

  auto filter_instance = [&](double keep_frac) {
    core::ProblemInstance inst = full_instance;
    util::Rng pick{909};
    std::vector<bool> keep(inst.peering_count, false);
    for (std::size_t g = 0; g < inst.peering_count; ++g) {
      keep[g] = pick.Uniform01() < keep_frac;
    }
    for (auto& opts : inst.options) {
      std::erase_if(opts, [&](const core::IngressOption& o) {
        return !keep[o.peering.value()];
      });
    }
    return inst;
  };

  util::Table scale{{"peers (%)", "sessions", "90% benefit", "95%", "99%"}};
  for (const double frac : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const auto inst = filter_instance(frac);
    // Sessions some UG still has as an option.
    std::vector<bool> used(inst.peering_count, false);
    for (const auto& opts : inst.options) {
      for (const core::IngressOption& o : opts) used[o.peering.value()] = true;
    }
    const auto sessions = std::count(used.begin(), used.end(), true);
    const auto full = bench::SolvePainter(inst, inst.peering_count);
    scale.AddRow({util::Table::Num(100.0 * frac, 0),
                  std::to_string(sessions),
                  std::to_string(PrefixesForPct(inst, full, 0.90, 3000)),
                  std::to_string(PrefixesForPct(inst, full, 0.95, 3000)),
                  std::to_string(PrefixesForPct(inst, full, 0.99, 3000))});
  }
  scale.Print(std::cout);
  std::cout << "\nPaper shape: required prefixes grow ~linearly with "
               "deployment size (so orchestrator overhead tracks cloud "
               "growth).\n";

  util::PrintFigureHeader(
      std::cout, "Figure 15b",
      "D_reuse sweep: prefixes for 99% benefit vs benefit uncertainty.");

  const auto& instance = full_instance;  // reuse the world from 15a
  util::Table dr{{"D_reuse (km)", "prefixes for 99%", "announcements",
                  "uncertainty at 99% (ms)"}};
  for (const double d_reuse : {500.0, 1000.0, 1500.0, 2000.0, 2500.0,
                               3000.0}) {
    const auto full = bench::SolvePainter(
        instance, w.deployment->peerings().size(), d_reuse);
    const std::size_t b99 = PrefixesForPct(instance, full, 0.99, d_reuse);
    const auto cfg = core::Truncate(full, b99);
    const core::RoutingModel model{instance.UgCount()};
    const auto pred = core::PredictBenefit(instance, model, cfg,
                                           {.d_reuse_km = d_reuse});
    // The paper quantifies uncertainty as upper minus estimated benefit at
    // the 99% point (App. E.2).
    dr.AddRow({util::Table::Num(d_reuse, 0), std::to_string(b99),
               std::to_string(cfg.AnnouncementCount()),
               util::Table::Num(pred.upper_ms - pred.estimated_ms, 2)});
  }
  dr.Print(std::cout);
  std::cout << "\nPaper shape: larger D_reuse -> less uncertainty but more "
               "prefixes; the paper uses 3,000 km as the tradeoff point.\n";
  return 0;
}
