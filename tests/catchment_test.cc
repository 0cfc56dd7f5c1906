// Catchment superset and catchment-pruning soundness.
//
// Two correctness bars from DESIGN.md §14:
//  - a peering's UG list in the engine's FlatPeeringIndex must never miss a
//    UG whose ingress shifts when the peering's announcement changes (zero
//    false negatives): the dirty-UG rule and pruning rely on that superset.
//    False positives only cost speed, so the rate is reported, not gated.
//  - pruned CELF seed evaluations must be provably irrelevant: the audit
//    hook re-runs every skipped from-scratch marginal and this test asserts
//    each one is ≤ 0 (it could never have entered the heap), and that the
//    pruned and unpruned engines emit byte-identical configurations.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "core/orchestrator.h"
#include "core/problem.h"
#include "obs/metrics.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

TEST(PeeringCatchment, SupersetOfRealizedShiftOnSeededWorlds) {
  // 20 seeded worlds; in each, withdraw a handful of sessions one at a time
  // and compare the realized shifted-UG set against the UGs the flat index
  // lists for the session.
  std::size_t predicted_total = 0;
  std::size_t realized_total = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const test::World& w = test::SharedWorld(seed, 60, 5);
    const auto& peerings = w.deployment->peerings();
    const std::size_t n_ug = w.deployment->ugs().size();
    const ProblemInstance inst = test::MakeInstance(w);
    const FlatPeeringIndex flat{inst};

    std::vector<util::PeeringId> all;
    for (const auto& p : peerings) all.push_back(p.id);
    const auto base = w.resolver->Resolve(all);

    for (std::size_t t = 0; t < 4; ++t) {
      const std::size_t target = (seed * 7 + t * 13) % peerings.size();
      std::vector<util::PeeringId> without;
      for (const auto& p : peerings) {
        if (p.id.value() != target) without.push_back(p.id);
      }
      const auto toggled = w.resolver->Resolve(without);
      const std::set<std::uint32_t> predicted(
          flat.ug.begin() + static_cast<std::ptrdiff_t>(flat.offset[target]),
          flat.ug.begin() +
              static_cast<std::ptrdiff_t>(flat.offset[target + 1]));
      predicted_total += predicted.size();
      for (std::uint32_t u = 0; u < n_ug; ++u) {
        if (base[u] == toggled[u]) continue;
        ++realized_total;
        EXPECT_TRUE(predicted.contains(u))
            << "seed " << seed << " session " << target << " UG " << u
            << ": ingress shifted but was not predicted (false negative)";
      }
    }
  }
  ASSERT_GT(realized_total, 0u) << "no withdrawal shifted any UG — vacuous";
  // False positives are the price of the provable superset; report the rate.
  const double fp_rate =
      predicted_total == 0
          ? 0.0
          : 1.0 - static_cast<double>(realized_total) /
                      static_cast<double>(predicted_total);
  ::testing::Test::RecordProperty("catchment_fp_rate", fp_rate);
  ::testing::Test::RecordProperty("catchment_predicted_total",
                                  static_cast<int>(predicted_total));
  ::testing::Test::RecordProperty("catchment_realized_total",
                                  static_cast<int>(realized_total));
}

TEST(CatchmentPruning, AuditedSkipsAreFromScratchZero) {
  // Every pruned seed evaluation re-run from scratch must come out ≤ 0 —
  // i.e. the skip could not have changed the greedy schedule. This is the
  // zero-false-negative audit the acceptance bar names.
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  std::vector<double> audited;
  OrchestratorConfig cfg;
  cfg.prefix_budget = 8;
  cfg.catchment_audit = [&](util::PeeringId, double fresh) {
    audited.push_back(fresh);
  };
  const Orchestrator orch{inst, cfg};
  (void)orch.ComputeConfig();
  ASSERT_FALSE(audited.empty()) << "pruning never fired — audit vacuous";
  for (const double fresh : audited) EXPECT_LE(fresh, 0.0);
}

TEST(CatchmentPruning, ReducesEvaluationsAndPreservesConfig) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  OrchestratorConfig cfg;
  cfg.prefix_budget = 8;
  // Widened space too: pruning must hold beyond the legacy variant table.
  cfg.action_space = ActionSpaceConfig{.max_prepend = 1,
                                       .enable_lower_pref = true,
                                       .enable_no_export = true};
  const Orchestrator orch{inst, cfg};
  const std::uint64_t evals0 =
      obs::Metrics().CounterValue("orchestrator.celf.evaluations");
  const std::uint64_t pruned0 =
      obs::Metrics().CounterValue("celf.pruned.seed_evals");
  const std::string text = ConfigToString(orch.ComputeConfig());
  const std::uint64_t evals =
      obs::Metrics().CounterValue("orchestrator.celf.evaluations") - evals0;
  const std::uint64_t pruned =
      obs::Metrics().CounterValue("celf.pruned.seed_evals") - pruned0;
  EXPECT_EQ(text, ConfigToString(orch.ComputeConfigUncached()))
      << "the pruned engine's config differs from the reference's";
  EXPECT_GT(pruned, 0u) << "pruning skipped no evaluations";
  // Each pruned seed skips exactly one evaluation, so evals + pruned is
  // what the engine would have spent unpruned.
  ::testing::Test::RecordProperty(
      "pruning_saved_frac",
      static_cast<double>(pruned) / static_cast<double>(evals + pruned));
}

}  // namespace
}  // namespace painter::core
