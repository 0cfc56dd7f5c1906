// Fig. 6b: average realized latency improvement (over clients with non-zero
// improvement) vs prefix budget on the PEERING-style prototype — here,
// advertisements actually executed against the BGP simulation, latencies
// measured through the resolved ingresses. PAINTER (after learning) reaches
// ~90%+ of its saturated benefit with ~10x fewer prefixes than
// One-per-Peering.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/strategy_eval.h"
#include "core/sim_environment.h"
#include "util/table.h"

int main() {
  using namespace painter;

  util::PrintFigureHeader(
      std::cout, "Figure 6b",
      "Realized mean improvement (positive-improvement UGs) vs prefix "
      "budget, prototype deployment (25 PoPs).");

  auto w = bench::PrototypeWorld();
  util::Rng rng{21};
  const auto instance = core::BuildMeasuredInstance(
      w.internet(), *w.deployment, *w.catalog, *w.resolver, *w.oracle, rng);
  std::cout << "Deployment: " << w.deployment->pops().size() << " PoPs, "
            << w.deployment->peerings().size() << " sessions, "
            << instance.UgCount() << " UGs.\n\n";

  // PAINTER runs its advertise/observe/learn loop at each budget point (as
  // the deployed system would); the curve reports the best iteration's
  // realized configuration. The full-budget solve anchors the saturation
  // headline.
  //
  // Solves are memoised. One at budget S whose iterations used at most
  // m < S prefixes never hit the cap, so a run at any budget above m makes
  // the same greedy rounds in every iteration and returns the same result.
  struct Solve {
    std::size_t budget;
    std::size_t max_used;  // most prefixes any iteration used
    core::AdvertisementConfig config;
  };
  std::vector<Solve> solves;
  auto solve_painter = [&](std::size_t budget) {
    for (const Solve& s : solves) {
      const bool uncapped = s.max_used < s.budget && budget > s.max_used;
      if (s.budget == budget || uncapped) return s.config;
    }
    core::OrchestratorConfig ocfg;
    ocfg.prefix_budget = budget;
    ocfg.max_learning_iterations = 6;
    core::Orchestrator orch{instance, ocfg};
    core::SimEnvironment env{*w.resolver, *w.oracle, util::Rng{31}};
    const auto reports = orch.Learn(env);
    std::size_t best = 0;
    std::size_t max_used = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (reports[i].realized_ms > reports[best].realized_ms) best = i;
      max_used = std::max(max_used, reports[i].prefixes_used);
    }
    solves.push_back(Solve{budget, max_used, reports[best].config});
    return reports[best].config;
  };
  const auto painter_full = solve_painter(w.deployment->peerings().size());
  std::cout << "PAINTER saturates at " << painter_full.NonEmptyPrefixCount()
            << " prefixes.\n\n";

  core::GroundTruthEvaluator eval{*w.deployment, *w.resolver, *w.oracle};
  // Fig. 6b averages over the clients that can improve at all (the paper saw
  // gains for ~8k of 40k UGs, concentrated in few ingresses).
  const auto benefiting = eval.BenefitingUgs(*w.catalog);
  std::cout << "UGs with any available improvement: " << benefiting.size()
            << " of " << instance.UgCount() << ".\n\n";
  const auto budgets = bench::BudgetPoints(w.deployment->peerings().size());
  const auto strategies = bench::PaperStrategies(w, instance, painter_full,
                                                 3000.0);

  std::vector<double> xs;
  for (const std::size_t b : budgets) {
    xs.push_back(100.0 * static_cast<double>(b) /
                 static_cast<double>(w.deployment->peerings().size()));
  }
  std::vector<util::Series> series;
  for (const auto& strategy : strategies) {
    const bool is_painter = strategy.name == "PAINTER";
    util::Series s{strategy.name, {}};
    for (const std::size_t b : budgets) {
      eval.SetConfig(is_painter ? solve_painter(b) : strategy.build(b));
      s.ys.push_back(eval.MeanImprovementOverUgsMs(benefiting, 0));
    }
    series.push_back(std::move(s));
  }
  PrintSweep(std::cout, "budget (% of sessions)", xs, series, 1);

  // Headline: budget PAINTER needs for 90% of its saturated benefit vs the
  // next-best strategy.
  eval.SetConfig(painter_full);
  const double saturated = eval.MeanImprovementOverUgsMs(benefiting, 0);
  auto budget_for = [&](const bench::NamedStrategy* strategy,
                        double target) -> std::size_t {
    for (std::size_t b = 1; b <= w.deployment->peerings().size();
         b = b < 16 ? b + 1 : b + b / 4) {
      eval.SetConfig(strategy != nullptr ? strategy->build(b)
                                         : solve_painter(b));
      if (eval.MeanImprovementOverUgsMs(benefiting, 0) >= target) return b;
    }
    return w.deployment->peerings().size();
  };
  const std::size_t painter_90 = budget_for(nullptr, 0.9 * saturated);
  const std::size_t opg_90 = budget_for(&strategies[1], 0.9 * saturated);
  std::cout << "\nSaturated PAINTER improvement: "
            << util::Table::Num(saturated, 1) << " ms (paper: ~60 ms).\n";
  std::cout << "Prefixes for 90% of that: PAINTER " << painter_90
            << ", One-per-Peering " << opg_90 << " ("
            << util::Table::Num(
                   static_cast<double>(opg_90) / static_cast<double>(painter_90),
                   1)
            << "x; paper reports ~10x).\n";
  return 0;
}
