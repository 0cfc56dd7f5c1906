// Always-on control-plane bench: reaction latency and recompute savings.
//
// Two phases over one measured-instance bench world (DESIGN.md §15):
//
//  reaction — the ControlPlaneService runs with the cross-call seed cache ON
//    and the byte-equality audit ON while scripted session faults hit
//    committed announcements. Each fault must be answered by a compensating
//    commit; the sim-time from fault onset to that commit is the reaction
//    latency, reported in ms and in units of the deployment's weighted mean
//    anycast RTT (the paper reacts in ~1.3 RTTs; our floor is the wake
//    cadence, see EXPERIMENTS.md). Gates: every fault answered, p99 within
//    the structural SLO (bus-drain wake + one blocked wake + a full
//    episode), audit mismatches == 0 with > 0 checks, and > 0 cross-call
//    seed-cache hits (the service really ran incrementally).
//
//  savings — a fresh service (audit OFF) rides diurnal per-UG latency drift;
//    its steady-state CELF evaluations are compared against batch re-Learn()
//    at the service's own wake cadence — the compute a deployment without
//    delta-driven invalidation pays for the SAME reaction latency, since
//    without deltas it cannot tell a quiet wake from a churned one and must
//    re-learn on the timer. Gate: equal-reactivity batch cost >= 5x the
//    incremental service's.
//
// Every reported value is a pure function of --seed; wall time appears only
// in the phases section (StripVolatile removes it), so reports diff cleanly
// across reruns.
//
// Usage:
//   control_loop                  # full run (seed 909)
//   control_loop --seed 7
//   control_loop --smoke          # small world + short horizons
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "control/churn.h"
#include "control/control_plane.h"
#include "control/delta_bus.h"
#include "core/orchestrator.h"
#include "core/problem.h"
#include "core/sim_environment.h"
#include "netsim/sim.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "util/hashmix.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace painter;

std::uint64_t Counter(const char* name) {
  return obs::Metrics().GetCounter(name).Value();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Weighted mean anycast RTT: the deployment-wide "1 RTT" reference used to
// express reaction latency in the paper's units.
double MeanAnycastRttMs(const core::ProblemInstance& inst) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t u = 0; u < inst.UgCount(); ++u) {
    num += inst.ug_weight[u] * inst.anycast_rtt_ms[u];
    den += inst.ug_weight[u];
  }
  return den > 0.0 ? num / den : 0.0;
}

struct Shape {
  // World.
  std::size_t stubs, pops, transits, regionals;
  // Control-plane cadence (shared by both phases).
  double wake_s, round_s, cooldown_s;
  std::size_t rounds_per_episode;
  // Reaction phase: fault onsets, down duration, horizon.
  std::vector<double> fault_at_s;
  double fault_hold_s, reaction_run_s;
  // Savings phase: drift epoch length, first drift, horizon, and a cooldown
  // matched to the drift timescale (reaction urgency bypasses cooldown, so
  // the reaction phase keeps the snappier one above).
  double drift_every_s, drift_start_s, savings_run_s, savings_cooldown_s;
};

Shape FullShape() {
  return Shape{300, 10,  40,    120, 5.0,   2.0,   20.0, 2,
               {100.0, 250.0, 400.0}, 80.0, 520.0, 60.0, 120.0, 420.0, 45.0};
}

Shape SmokeShape() {
  return Shape{80, 5,   10,    20,  5.0,   2.0,   10.0, 2,
               {60.0, 90.0, 120.0}, 20.0, 150.0, 30.0, 60.0, 180.0, 25.0};
}

core::OrchestratorConfig OrchConfig(bool incremental, bool audit) {
  core::OrchestratorConfig cfg;
  cfg.prefix_budget = 4;
  cfg.max_learning_iterations = 16;
  cfg.cross_call_seed_cache = incremental;
  cfg.seed_cache_audit = audit;
  // Above the min-of-N ping jitter: at 2 ms the chance all N draws of the
  // measurement noise clear the floor is ~1e-4 per pair, so steady-state
  // re-measurements leave the seed cache warm and quiet wakes trigger no
  // episode at all (DESIGN.md §15).
  cfg.model_update_epsilon_ms = 2.0;
  return cfg;
}

control::ControlPlaneConfig ServiceConfig(const Shape& s) {
  control::ControlPlaneConfig cfg;
  cfg.start_s = 1.0;
  cfg.wake_interval_s = s.wake_s;
  cfg.round_interval_s = s.round_s;
  cfg.max_rounds_per_episode = s.rounds_per_episode;
  cfg.cooldown_s = s.cooldown_s;
  // The bench measures raw reaction latency; a generous flip budget keeps
  // hysteresis from deferring the compensating commit.
  cfg.max_commits_per_window = 100;
  cfg.commit_window_s = 60.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 909;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: control_loop [--seed S] [--smoke]\n";
      return 64;
    }
  }
  const Shape shape = smoke ? SmokeShape() : FullShape();

  util::PrintFigureHeader(
      std::cout, "Control loop",
      "Always-on incremental control plane under scripted churn: fault "
      "onset to compensating advertisement, and incremental CELF cost vs "
      "batch re-Learn().");

  obs::Metrics().ResetValues();
  obs::RunReport report{"control_loop"};
  report.SetSeed(seed);
  report.AddConfig("smoke", smoke ? 1.0 : 0.0);
  report.AddConfig("stubs", static_cast<double>(shape.stubs));
  report.AddConfig("wake_interval_s", shape.wake_s);
  report.AddConfig("rounds_per_episode",
                   static_cast<double>(shape.rounds_per_episode));

  bench::BenchWorld w = bench::MakeBenchWorld(seed, shape.stubs, shape.pops,
                                              shape.transits, shape.regionals);
  util::Rng inst_rng{util::MixSeed(seed, 0x1257)};
  const core::ProblemInstance inst = core::BuildMeasuredInstance(
      w.internet(), *w.deployment, *w.catalog, *w.resolver, *w.oracle,
      inst_rng);
  const double rtt_ms = MeanAnycastRttMs(inst);
  report.AddValue("mean_anycast_rtt_ms", rtt_ms);

  // ---------------------------------------------------------------- reaction
  // Worst structural path: a fault lands right after a wake (one full
  // drain interval), the next wake finds an episode still in flight (one
  // more interval), then the compensating commit waits for the episode's
  // last round.
  const double slo_ms =
      (2.0 * shape.wake_s + shape.rounds_per_episode * shape.round_s) * 1000.0;
  std::vector<double> reactions;
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_mismatches = 0;
  std::uint64_t cross_hits = 0;
  control::ControlPlaneService::Stats reaction_stats;
  {
    const obs::RunReport::ScopedPhase phase{report, "reaction"};
    const std::uint64_t checks0 =
        Counter("orchestrator.celf.seed_cache_audit_checks");
    const std::uint64_t mismatch0 =
        Counter("orchestrator.celf.seed_cache_audit_mismatches");
    const std::uint64_t hits0 = Counter("orchestrator.celf.cross_seed_hits");

    core::Orchestrator orch{
        inst, OrchConfig(/*incremental=*/true, /*audit=*/true)};
    core::SimEnvironment inner{*w.resolver, *w.oracle,
                               util::Rng{util::MixSeed(seed, 0xBEEF)}};
    netsim::Simulator sim;
    control::DeltaBus bus;
    control::ChurnEnvironment churn{inner, inst.UgCount(), &sim, &bus};
    obs::TimeseriesRegistry timeseries{{.period_s = shape.wake_s}};
    control::ControlPlaneConfig cfg = ServiceConfig(shape);
    cfg.timeseries = &timeseries;
    control::ControlPlaneService svc{sim, orch, churn, bus, cfg};

    // Each fault downs the first still-up session of the then-committed
    // schedule — an announcement the fabric is actually using — and restores
    // it fault_hold_s later.
    for (const double at : shape.fault_at_s) {
      sim.Schedule(at, [&svc, &churn, at, hold = shape.fault_hold_s, &sim]() {
        const core::AdvertisementConfig& c = svc.committed();
        for (std::size_t p = 0; p < c.PrefixCount(); ++p) {
          for (const util::PeeringId s : c.Sessions(p)) {
            if (churn.IsDown(s)) continue;
            churn.SetPeeringDown(s, true);
            sim.Schedule(hold,
                         [&churn, s]() { churn.SetPeeringDown(s, false); });
            return;
          }
        }
      });
    }

    svc.Start();
    sim.Run(shape.reaction_run_s);

    reactions = svc.reaction_latencies_ms();
    reaction_stats = svc.stats();
    audit_checks =
        Counter("orchestrator.celf.seed_cache_audit_checks") - checks0;
    audit_mismatches =
        Counter("orchestrator.celf.seed_cache_audit_mismatches") - mismatch0;
    cross_hits = Counter("orchestrator.celf.cross_seed_hits") - hits0;
    report.AttachTimeseries(timeseries);
  }

  std::cout << "Reactions (fault onset -> compensating advertisement):\n";
  util::Table rt{{"#", "latency (ms)", "latency (RTTs)"}};
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    rt.AddRow({std::to_string(i), util::Table::Num(reactions[i], 0),
               util::Table::Num(rtt_ms > 0 ? reactions[i] / rtt_ms : 0, 1)});
  }
  rt.Print(std::cout);
  const double p50 = Percentile(reactions, 0.50);
  const double p99 = Percentile(reactions, 0.99);
  std::cout << "p50 " << util::Table::Num(p50, 0) << " ms, p99 "
            << util::Table::Num(p99, 0) << " ms (SLO "
            << util::Table::Num(slo_ms, 0) << " ms); audit " << audit_checks
            << " checks / " << audit_mismatches << " mismatches; "
            << cross_hits << " cross-call seed-cache hits\n";

  report.AddValue("reaction.count", static_cast<double>(reactions.size()));
  report.AddValue("reaction.p50_ms", p50);
  report.AddValue("reaction.p99_ms", p99);
  report.AddValue("reaction.p99_rtts", rtt_ms > 0 ? p99 / rtt_ms : 0.0);
  report.AddValue("reaction.slo_ms", slo_ms);
  report.AddValue("reaction.episodes",
                  static_cast<double>(reaction_stats.episodes_triggered));
  report.AddValue("reaction.rounds",
                  static_cast<double>(reaction_stats.rounds_run));
  report.AddValue("reaction.commits",
                  static_cast<double>(reaction_stats.commits_applied));
  report.AddValue("reaction.flips",
                  static_cast<double>(reaction_stats.flips_total));
  report.AddValue("audit.checks", static_cast<double>(audit_checks));
  report.AddValue("audit.mismatches", static_cast<double>(audit_mismatches));
  report.AddValue("cross_seed_hits", static_cast<double>(cross_hits));

  // ----------------------------------------------------------------- savings
  std::uint64_t service_evals = 0;
  std::uint64_t episodes_incremental = 0;
  std::uint64_t batch_evals = 0;
  double per_episode = 0.0;
  double savings_ratio = 0.0;
  {
    const obs::RunReport::ScopedPhase phase{report, "savings"};
    core::Orchestrator orch{
        inst, OrchConfig(/*incremental=*/true, /*audit=*/false)};
    core::SimEnvironment inner{*w.resolver, *w.oracle,
                               util::Rng{util::MixSeed(seed, 0xD1F7)}};
    netsim::Simulator sim;
    control::DeltaBus bus;
    control::ChurnEnvironment churn{inner, inst.UgCount(), &sim, &bus};

    control::ControlPlaneConfig scfg = ServiceConfig(shape);
    scfg.cooldown_s = shape.savings_cooldown_s;
    control::ControlPlaneService svc{sim, orch, churn, bus, scfg};

    // Evaluations before the first drift epoch are the one-time cold-start
    // cost (bootstrap + model convergence, ~15 rounds); the incremental
    // claim is about the steady state after. Snapshot at the warmup
    // boundary, just before the first drift fires at the same sim time.
    std::uint64_t evals_at_warmup = 0;
    std::uint64_t episodes_at_warmup = 0;
    sim.Schedule(shape.drift_start_s, [&]() {
      evals_at_warmup = Counter("orchestrator.celf.evaluations");
      episodes_at_warmup = svc.stats().episodes_triggered;
    });

    // Diurnal drift: every epoch a handful of UGs shift by 5-25 ms (signed,
    // cumulative) — path changes under the deployment.
    util::Rng drift_rng{util::MixSeed(seed, 0xD81F7)};
    for (double at = shape.drift_start_s; at < shape.savings_run_s;
         at += shape.drift_every_s) {
      for (std::size_t i = 0; i < 5; ++i) {
        const util::UgId ug{
            static_cast<std::uint32_t>(drift_rng.Index(inst.UgCount()))};
        double delta = drift_rng.Uniform(5.0, 25.0);
        if (drift_rng.Index(2) == 1) delta = -delta;
        sim.Schedule(at, [&churn, ug, delta]() {
          churn.AddUgLatencyOffset(ug, delta);
        });
      }
    }

    svc.Start();
    sim.Run(shape.savings_run_s);

    const std::uint64_t evals_end = Counter("orchestrator.celf.evaluations");
    service_evals = evals_end - evals_at_warmup;
    episodes_incremental =
        svc.stats().episodes_triggered - episodes_at_warmup;

    // The equal-reactivity alternative: one from-scratch batch Learn() on
    // the same churned world, paid at every wake — without delta-driven
    // invalidation the deployment cannot tell a quiet wake from a churned
    // one, so matching the service's reaction latency means re-learning on
    // the wake timer.
    core::Orchestrator batch{
        inst, OrchConfig(/*incremental=*/false, /*audit=*/false)};
    const std::uint64_t batch0 = Counter("orchestrator.celf.evaluations");
    (void)batch.Learn(churn);
    batch_evals = Counter("orchestrator.celf.evaluations") - batch0;
  }
  const auto steady_wakes = static_cast<std::uint64_t>(
      (shape.savings_run_s - shape.drift_start_s) / shape.wake_s);
  per_episode =
      episodes_incremental > 0
          ? static_cast<double>(service_evals) /
                static_cast<double>(episodes_incremental)
          : 0.0;
  const double batch_total =
      static_cast<double>(batch_evals) * static_cast<double>(steady_wakes);
  savings_ratio = service_evals > 0
                      ? batch_total / static_cast<double>(service_evals)
                      : 0.0;

  std::cout << "\nRecompute savings over the "
            << util::Table::Num(shape.savings_run_s - shape.drift_start_s, 0)
            << " s steady-state window:\n";
  util::Table st{{"", "CELF evals"}};
  st.AddRow({"batch re-Learn() at wake cadence (" +
                 std::to_string(steady_wakes) + " wakes x " +
                 std::to_string(batch_evals) + ")",
             util::Table::Num(batch_total, 0)});
  st.AddRow({"incremental service (" + std::to_string(episodes_incremental) +
                 " episodes, " + util::Table::Num(per_episode, 1) +
                 " evals each)",
             std::to_string(service_evals)});
  st.Print(std::cout);
  std::cout << "equal-reactivity savings ratio "
            << util::Table::Num(savings_ratio, 1) << "x (gate >= 5x)\n";

  report.AddValue("savings.batch_evals_per_learn",
                  static_cast<double>(batch_evals));
  report.AddValue("savings.steady_wakes", static_cast<double>(steady_wakes));
  report.AddValue("savings.service_evals",
                  static_cast<double>(service_evals));
  report.AddValue("savings.episodes",
                  static_cast<double>(episodes_incremental));
  report.AddValue("savings.evals_per_episode", per_episode);
  report.AddValue("savings.ratio", savings_ratio);

  report.AttachMetrics();
  const std::string path = bench::ReportPath("control_loop");
  report.Write(path);
  std::cout << "\nReport: " << path << "\n";

  // Gates.
  std::string fail;
  if (reactions.size() < shape.fault_at_s.size()) {
    fail = "only " + std::to_string(reactions.size()) + " of " +
           std::to_string(shape.fault_at_s.size()) + " faults answered";
  } else if (p99 > slo_ms) {
    fail = "reaction p99 " + std::to_string(p99) + " ms exceeds SLO " +
           std::to_string(slo_ms) + " ms";
  } else if (audit_checks == 0 || audit_mismatches != 0) {
    fail = "audit: " + std::to_string(audit_checks) + " checks, " +
           std::to_string(audit_mismatches) + " mismatches";
  } else if (cross_hits == 0) {
    fail = "no cross-call seed-cache hits — the service never ran "
           "incrementally";
  } else if (episodes_incremental == 0) {
    fail = "savings phase triggered no post-bootstrap episodes";
  } else if (savings_ratio < 5.0) {
    fail = "savings ratio " + std::to_string(savings_ratio) + "x < 5x";
  }
  if (!fail.empty()) {
    std::cerr << "control_loop: acceptance gate failed: " << fail << "\n";
    return 1;
  }
  return 0;
}
