// Fig. 6c: PAINTER learns from incorrect routing assumptions over
// advertisement iterations — realized benefit rises and the gap between the
// model's prediction and reality narrows as observed ingress preferences and
// measured RTTs replace the equal-likelihood assumption. The paper's
// prototype went from 44 ms of uncertainty to 8 ms while realized benefit
// climbed toward ~60 ms.
//
// The prototype's environment was full of surprises (transits inflating
// routes over 10k+ km, New York users preferring Amsterdam ingresses), so
// this bench raises the exit-quirk rate: a quarter of (entry AS, metro)
// pairs route to a non-nearest PoP the model cannot know a priori.
#include <cstdint>
#include <iostream>
#include <string>

#include "bench/strategy_eval.h"
#include "core/config_io.h"
#include "core/sim_environment.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "util/table.h"

int main() {
  using namespace painter;

  util::PrintFigureHeader(
      std::cout, "Figure 6c",
      "Learning iterations: realized benefit climbs and prediction error "
      "shrinks as routing surprises are observed (high-quirk prototype).");

  obs::RunReport report{"fig6c_learning"};
  report.SetSeed(202);  // PrototypeWorld's seed
  report.AddConfig("exit_quirk_rate", 0.25);
  report.AddConfig("max_learning_iterations", 6.0);

  auto w = bench::PrototypeWorld();
  // A surprise-rich routing environment, resolved consistently everywhere.
  const cloudsim::IngressResolver resolver{w.internet(), *w.deployment,
                                           cloudsim::ExitQuirkConfig{0.25, 7}};
  util::Rng rng{21};
  const auto instance = core::BuildMeasuredInstance(
      w.internet(), *w.deployment, *w.catalog, resolver, *w.oracle, rng);

  for (const std::size_t budget : {5ul, 15ul, 40ul}) {
    core::OrchestratorConfig ocfg;
    ocfg.prefix_budget = budget;
    ocfg.d_reuse_km = 3000.0;
    ocfg.max_learning_iterations = 6;
    // A negative fraction drops only the relative margin: the patience rule
    // (kLearningAbsEpsilonMs, learning_patience) still stops each budget,
    // here after 4 of its 6 iterations.
    ocfg.learning_stop_frac = -1.0;
    core::Orchestrator orch{instance, ocfg};
    core::SimEnvironment env{resolver, *w.oracle, util::Rng{31}};
    const obs::RunReport::ScopedPhase phase{
        report, "learn_budget_" + std::to_string(budget)};
    const auto reports = orch.Learn(env);

    std::cout << "Budget " << budget << " prefixes:\n";
    util::Table table{{"iteration", "realized (ms)", "realized+ (ms)",
                       "predicted mean (ms)", "prediction error (ms)",
                       "announcements"}};
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      table.AddRow({std::to_string(i + 1), util::Table::Num(r.realized_ms, 2),
                    util::Table::Num(r.realized_positive_ms, 2),
                    util::Table::Num(r.predicted.mean_ms, 2),
                    util::Table::Num(r.predicted.mean_ms - r.realized_ms, 2),
                    std::to_string(r.config.AnnouncementCount())});
    }
    table.Print(std::cout);
    const auto& first = reports.front();
    const auto& last = reports.back();
    const std::string key = "budget" + std::to_string(budget);
    report.AddValue(key + ".final_realized_ms", last.realized_ms);
    report.AddValue(key + ".learning_gain_ms",
                    last.realized_ms - first.realized_ms);
    report.AddValue(key + ".final_prediction_error_ms",
                    last.predicted.mean_ms - last.realized_ms);
    std::cout << "Learning gain: "
              << util::Table::Num(last.realized_ms - first.realized_ms, 2)
              << " ms realized; prediction error "
              << util::Table::Num(first.predicted.mean_ms - first.realized_ms,
                                  2)
              << " -> "
              << util::Table::Num(last.predicted.mean_ms - last.realized_ms, 2)
              << " ms.\n\n";
  }

  // Ablation: learning disabled == iteration 1 forever.
  core::OrchestratorConfig ab;
  ab.prefix_budget = 15;
  ab.enable_learning = false;
  core::Orchestrator no_learn{instance, ab};
  core::SimEnvironment env{resolver, *w.oracle, util::Rng{31}};
  const auto frozen = no_learn.Learn(env);
  std::cout << "Ablation (learning off, budget 15): realized stays at "
            << util::Table::Num(frozen.back().realized_ms, 2) << " ms.\n";
  report.AddValue("ablation.no_learning_realized_ms",
                  frozen.back().realized_ms);

  // Catchment-pruning phase (DESIGN.md §14): at the Azure scale (1200 stub
  // ASes, budget 32 — the regime where many peerings' catchments are
  // saturated) the engine's cached-seed skip must cut CELF evaluations
  // by a large margin while reproducing the from-scratch reference's
  // configuration byte for byte. Each pruned seed skips exactly one
  // evaluation and changes nothing else, so the unpruned count is the
  // engine's evaluations plus its pruned seeds. tools/perf_check.sh gates
  // saved_frac >= 0.30.
  {
    auto az = bench::AzureScaleWorld();
    util::Rng arng{21};
    const auto az_inst = core::BuildMeasuredInstance(
        az.internet(), *az.deployment, *az.catalog, *az.resolver, *az.oracle,
        arng);
    core::OrchestratorConfig cfg;
    cfg.prefix_budget = 32;
    const core::Orchestrator orch{az_inst, cfg};
    const std::uint64_t evals0 =
        obs::Metrics().CounterValue("orchestrator.celf.evaluations");
    const std::uint64_t pruned0 =
        obs::Metrics().CounterValue("celf.pruned.seed_evals");
    std::string text;
    {
      const obs::RunReport::ScopedPhase phase{report, "celf_pruned_1200"};
      text = core::ConfigToString(orch.ComputeConfig());
    }
    const std::uint64_t evals_on =
        obs::Metrics().CounterValue("orchestrator.celf.evaluations") - evals0;
    const std::uint64_t evals_off =
        evals_on + obs::Metrics().CounterValue("celf.pruned.seed_evals") -
        pruned0;
    if (text != core::ConfigToString(orch.ComputeConfigUncached())) {
      std::cerr << "FATAL: the pruned engine's config differs from the "
                   "from-scratch reference's.\n";
      return 1;
    }
    const double saved_frac =
        1.0 - static_cast<double>(evals_on) / static_cast<double>(evals_off);
    std::cout << "Catchment pruning (1200 stubs, budget 32): " << evals_off
              << " -> " << evals_on << " CELF evaluations ("
              << util::Table::Num(100.0 * saved_frac, 1)
              << "% saved), config byte-identical.\n";
    report.AddValue("pruning.evals_off", static_cast<double>(evals_off));
    report.AddValue("pruning.evals_on", static_cast<double>(evals_on));
    report.AddValue("pruning.saved_frac", saved_frac);
  }
  report.AttachMetrics();
  report.Write(bench::ReportPath("fig6c_learning"));
  return 0;
}
