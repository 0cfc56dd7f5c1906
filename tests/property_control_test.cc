// Property suite for the always-on control plane (DESIGN.md §15).
//
// Over seeded random worlds and churn scripts:
//  - incremental == full: every cross-cached re-optimization round, byte-
//    audited inside ComputeConfig against a from-scratch pass on the same
//    model state, reports zero mismatches;
//  - determinism: the whole service run (round records, committed schedule,
//    reaction latencies) is byte-identical across reruns;
//  - hysteresis: committed rounds never exceed max_commits_per_window inside
//    any commit_window_s-long interval of the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "control/churn.h"
#include "control/control_plane.h"
#include "control/delta_bus.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "netsim/sim.h"
#include "obs/metrics.h"
#include "tests/world_fixture.h"
#include "util/hashmix.h"
#include "util/rng.h"

namespace painter::control {
namespace {

constexpr std::uint64_t kSeeds = 20;
constexpr double kRunForS = 90.0;

struct ScenarioResult {
  std::string canonical;
  ControlPlaneService::Stats stats;
  std::vector<ControlPlaneService::RoundRecord> rounds;
};

// One full control-plane run: world and churn script derived from `seed`,
// orchestrator with the cross-call cache on and optionally byte-audited.
// Pure function of (seed, audit).
ScenarioResult RunScenario(std::uint64_t seed, bool audit) {
  const test::World& w = test::SharedWorld(seed, 60, 5);
  core::ProblemInstance inst = test::MakeInstance(w, seed + 100);

  core::OrchestratorConfig ocfg;
  ocfg.prefix_budget = 4;
  ocfg.max_learning_iterations = 16;
  ocfg.cross_call_seed_cache = true;
  ocfg.seed_cache_audit = audit;
  ocfg.model_update_epsilon_ms = 1.0;  // above min-of-N ping jitter
  core::Orchestrator orch{inst, ocfg};

  core::SimEnvironment inner{*w.resolver, *w.oracle,
                             util::Rng{util::MixSeed(seed, 0xC0DE)}};

  netsim::Simulator sim;
  DeltaBus bus;
  ChurnEnvironment churn{inner, inst.UgCount(), &sim, &bus};

  ControlPlaneConfig cfg;
  cfg.start_s = 1.0;
  cfg.wake_interval_s = 2.0;
  cfg.round_interval_s = 1.0;
  cfg.max_rounds_per_episode = 2;
  cfg.cooldown_s = 8.0;
  cfg.max_commits_per_window = 3;
  cfg.commit_window_s = 30.0;
  ControlPlaneService svc{sim, orch, churn, bus, cfg};

  // Random churn script: a handful of session flaps (with restores) and UG
  // latency drifts, all scheduled before the run so event order is fixed.
  util::Rng rng{util::MixSeed(seed, 0x5C217)};
  const std::size_t flaps = 1 + rng.Index(3);
  for (std::size_t i = 0; i < flaps; ++i) {
    const util::PeeringId session{
        static_cast<std::uint32_t>(rng.Index(inst.peering_count))};
    const double down_at = rng.Uniform(5.0, kRunForS * 0.6);
    const double up_at = down_at + rng.Uniform(10.0, 30.0);
    sim.Schedule(down_at,
                 [&churn, session]() { churn.SetPeeringDown(session, true); });
    if (up_at < kRunForS) {
      sim.Schedule(up_at, [&churn, session]() {
        churn.SetPeeringDown(session, false);
      });
    }
  }
  const std::size_t drifts = 2 + rng.Index(4);
  for (std::size_t i = 0; i < drifts; ++i) {
    const util::UgId ug{static_cast<std::uint32_t>(rng.Index(inst.UgCount()))};
    const double at = rng.Uniform(5.0, kRunForS * 0.8);
    const double delta = rng.Uniform(-20.0, 40.0);
    sim.Schedule(at,
                 [&churn, ug, delta]() { churn.AddUgLatencyOffset(ug, delta); });
  }

  svc.Start();
  sim.Run(kRunForS);
  return ScenarioResult{svc.CanonicalStats(), svc.stats(), svc.rounds()};
}

TEST(PropertyControlTest, IncrementalMatchesFullAndHysteresisHolds) {
  const auto checks0 =
      obs::Metrics()
          .GetCounter("orchestrator.celf.seed_cache_audit_checks")
          .Value();
  const auto mismatch0 =
      obs::Metrics()
          .GetCounter("orchestrator.celf.seed_cache_audit_mismatches")
          .Value();

  constexpr std::size_t kMaxPerWindow = 3;  // mirrors RunScenario's config
  const netsim::SimTime window_us = netsim::UsFromSeconds(30.0);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const ScenarioResult r = RunScenario(seed, /*audit=*/true);
    EXPECT_GE(r.stats.rounds_run, 1u) << "seed " << seed;
    EXPECT_GE(r.stats.commits_applied, 1u) << "seed " << seed;

    // Hysteresis property: every window anchored at a commit holds at most
    // kMaxPerWindow commits.
    std::vector<netsim::SimTime> commits;
    for (const auto& rec : r.rounds) {
      if (rec.committed) commits.push_back(rec.t_us);
    }
    for (std::size_t i = 0; i < commits.size(); ++i) {
      std::size_t in_window = 0;
      for (std::size_t j = i; j < commits.size(); ++j) {
        if (commits[j] - commits[i] < window_us) ++in_window;
      }
      EXPECT_LE(in_window, kMaxPerWindow) << "seed " << seed;
    }
  }

  const auto checks =
      obs::Metrics()
          .GetCounter("orchestrator.celf.seed_cache_audit_checks")
          .Value() -
      checks0;
  const auto mismatches =
      obs::Metrics()
          .GetCounter("orchestrator.celf.seed_cache_audit_mismatches")
          .Value() -
      mismatch0;
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(PropertyControlTest, ReRunByteIdentical) {
  for (const std::uint64_t seed : {3u, 7u, 13u}) {
    const ScenarioResult a = RunScenario(seed, false);
    const ScenarioResult b = RunScenario(seed, false);
    EXPECT_EQ(a.canonical, b.canonical) << "seed " << seed;
  }
}

TEST(PropertyControlTest, AuditModeDoesNotChangeTheSchedule) {
  for (const std::uint64_t seed : {5u, 17u}) {
    const ScenarioResult plain = RunScenario(seed, false);
    const ScenarioResult audited = RunScenario(seed, true);
    EXPECT_EQ(plain.canonical, audited.canonical) << "seed " << seed;
  }
}

}  // namespace
}  // namespace painter::control
