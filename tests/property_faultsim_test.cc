// Chaos property suite: random worlds × random FaultPlans.
//
// For every seed we generate a small TM world (PoPs, tunnels with random
// steady delays, client flows) and a random fault plan, run them through the
// plan-driven scenario engine, and demand the four §5.2.3 invariants
// (pinning, detection latency, no silent blackholing, reconvergence). On
// top of that:
//  - a painter.bench.v1 report for a fixed seed must be byte-identical
//    across reruns once obs::StripVolatile removes wall-clock noise, and
//  - BGP-layer replays (session flaps, peering withdrawals) must converge
//    back to the static Gao–Rexford fixpoint once the plan clears.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bgpsim/session_sim.h"
#include "faultsim/bgp_replay.h"
#include "faultsim/fault_plan.h"
#include "faultsim/invariants.h"
#include "faultsim/scenario.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "tests/world_fixture.h"
#include "util/rng.h"

namespace painter::faultsim {
namespace {

FaultPlan RandomPlan(std::uint64_t seed, const FaultScenarioSpec& spec) {
  PlanSpec ps;
  ps.tunnels = spec.tunnels.size();
  ps.pops = spec.pop_names.size();
  // Faults must clear well before the end so reconvergence is checkable:
  // latest onset 60 + max duration 15 + settle 5 < run_for 90.
  ps.latest_s = 60.0;
  return GenerateRandomPlan(seed, ps);
}

struct SeedOutcome {
  std::size_t checks = 0;
  std::size_t failovers = 0;
  std::size_t samples = 0;
  std::vector<std::string> violations;
};

SeedOutcome RunSeed(std::uint64_t seed) {
  const FaultScenarioSpec spec = GenerateRandomSpec(seed);
  const FaultPlan plan = RandomPlan(seed, spec);
  const FaultScenarioResult result = RunFaultScenario(spec, plan);
  const InvariantReport rep = CheckTmInvariants(spec, plan, result);
  return SeedOutcome{.checks = rep.checks,
                     .failovers = result.failovers.size(),
                     .samples = result.samples.size(),
                     .violations = rep.violations};
}

TEST(FaultsimProperty, InvariantsHoldAcrossRandomPlans) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const SeedOutcome out = RunSeed(seed);
    EXPECT_GT(out.samples, 0u) << "seed " << seed;
    EXPECT_GT(out.checks, 0u) << "seed " << seed;
    for (const std::string& v : out.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
  }
}

std::string ReportJsonForSeed(std::uint64_t seed) {
  obs::Metrics().ResetValues();
  const FaultScenarioSpec spec = GenerateRandomSpec(seed);
  const FaultPlan plan = RandomPlan(seed, spec);
  const FaultScenarioResult result = RunFaultScenario(spec, plan);
  const InvariantReport rep = CheckTmInvariants(spec, plan, result);

  obs::RunReport report{"property_faultsim"};
  report.SetSeed(seed);
  report.AddConfig("plan", ToString(plan));
  report.AddValue("checks", static_cast<double>(rep.checks));
  report.AddValue("violations", static_cast<double>(rep.violations.size()));
  report.AddValue("failovers", static_cast<double>(result.failovers.size()));
  report.AddValue("samples", static_cast<double>(result.samples.size()));
  report.AttachMetrics();
  return obs::StripVolatile(report.ToJson());
}

TEST(FaultsimProperty, SameSeedReportsAreByteIdentical) {
  const std::string a = ReportJsonForSeed(7);
  const std::string b = ReportJsonForSeed(7);
  EXPECT_EQ(a, b);
  const std::string c = ReportJsonForSeed(8);
  EXPECT_NE(a, c);  // and the seed actually matters
}

// Distinct neighbor ASes holding sessions in a world's deployment.
std::vector<util::AsId> NeighborAses(const test::World& w) {
  std::vector<util::AsId> out;
  for (const auto& sess : w.deployment->peerings()) {
    if (std::find(out.begin(), out.end(), sess.peer) == out.end()) {
      out.push_back(sess.peer);
    }
  }
  return out;
}

TEST(FaultsimProperty, BgpReplayConvergesBackToFixpoint) {
  for (const std::uint64_t seed : {3u, 21u, 64u}) {
    const test::World& w = test::SharedWorld(seed, 80, 5);
    const auto neighbors = NeighborAses(w);
    ASSERT_FALSE(neighbors.empty());

    netsim::Simulator sim;
    bgpsim::MessageLevelSim msim{
        w.internet().graph, w.deployment->cloud_as(), sim, {.seed = seed}};
    msim.Announce(neighbors);
    sim.Run(1e6);
    ASSERT_TRUE(sim.Empty());

    PlanSpec ps;
    ps.neighbors = neighbors.size();
    const FaultPlan plan = GenerateRandomPlan(seed, ps);
    ASSERT_TRUE(plan.HasBgpEvents());  // only BGP targets are drawable
    const BgpReplayStats stats =
        ScheduleBgpFaults(plan, neighbors, msim, sim);
    EXPECT_GT(stats.events_applied, 0u);
    EXPECT_EQ(stats.withdraw_ops, stats.announce_ops);

    const auto msgs_before = msim.MessagesProcessed();
    sim.Run(sim.Now() + 1e6);
    ASSERT_TRUE(sim.Empty());  // fully quiesced after the plan
    EXPECT_GT(msim.MessagesProcessed(), msgs_before);  // real churn happened

    const auto mismatches = CheckBgpConvergence(
        w.internet().graph, w.deployment->cloud_as(), neighbors, msim);
    for (const std::string& m : mismatches) {
      ADD_FAILURE() << "seed " << seed << ": " << m;
    }
  }
}

}  // namespace
}  // namespace painter::faultsim
