// Fig. 7: how long do advertisement benefits persist? A configuration solved
// from a week of measurements keeps ~97% of its benefit over the following
// 25 days when UGs can switch prefixes dynamically; freezing each UG's day-0
// prefix choice costs ~10% more — PAINTER's announcements age well because
// they expose backup paths, not because routing is static.
#include <iostream>

#include "bench/strategy_eval.h"
#include "util/table.h"

int main() {
  using namespace painter;

  util::PrintFigureHeader(
      std::cout, "Figure 7",
      "Benefit persistence over 25 days: dynamic vs static (day-0) prefix "
      "choices, per prefix budget.");

  auto w = bench::PrototypeWorld();
  util::Rng rng{21};
  const auto instance = core::BuildMeasuredInstance(
      w.internet(), *w.deployment, *w.catalog, *w.resolver, *w.oracle, rng);

  core::GroundTruthEvaluator eval{*w.deployment, *w.resolver, *w.oracle};
  auto eval_possible = [&eval](const bench::BenchWorld& world, int day) {
    return eval.PossibleMeanImprovementMs(*world.catalog, day);
  };

  const std::size_t sessions = w.deployment->peerings().size();
  const std::vector<std::pair<std::string, std::size_t>> budgets = {
      {"0.5% budget", std::max<std::size_t>(1, sessions / 200)},
      {"2% budget", std::max<std::size_t>(2, sessions / 50)},
      {"10% budget", std::max<std::size_t>(4, sessions / 10)},
  };

  std::vector<double> xs;
  for (int day = 0; day <= 25; day += 5) xs.push_back(day);

  // Fraction of the *possible* benefit achieved each day. Latencies drift
  // (regime shifts hit anycast and alternates alike), so the paper's metric
  // recalculates "the fraction of benefit we achieve" against that day's
  // measurements rather than comparing raw milliseconds across days.
  std::vector<double> possible_by_day;
  for (const double day : xs) {
    possible_by_day.push_back(
        eval_possible(w, static_cast<int>(day)));
  }

  std::vector<util::Series> series;
  for (const auto& [label, budget] : budgets) {
    const auto cfg = bench::SolvePainter(instance, budget);
    eval.SetConfig(cfg);

    const auto choices = eval.Choices(0);
    util::Series dynamic{label + " dynamic", {}};
    util::Series fixed{label + " static", {}};
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const int d = static_cast<int>(xs[i]);
      const double possible = std::max(1e-9, possible_by_day[i]);
      dynamic.ys.push_back(100.0 * eval.MeanImprovementMs(d) / possible);
      fixed.ys.push_back(100.0 * eval.MeanImprovementStaticMs(choices, d) /
                         possible);
    }
    series.push_back(std::move(dynamic));
    series.push_back(std::move(fixed));
  }
  PrintSweep(std::cout, "day (% of that day's possible benefit)", xs, series,
             1);

  std::cout << "\nPaper shape: dynamic choices hold ~95-100% of day-0 "
               "benefit for a month; static choices run ~10% lower — the "
               "announcements provide good backup paths, so reconfiguration "
               "is rarely needed (§5.1.3).\n";
  return 0;
}
