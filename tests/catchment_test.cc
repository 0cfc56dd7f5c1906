// Catchment predictor accuracy and catchment-pruning soundness.
//
// Two correctness bars from DESIGN.md §14:
//  - the predictor must never miss a shifted UG (zero false negatives): its
//    compliant-set superset claim is what makes pruning on top of it sound.
//    False positives only cost speed, so the rate is reported, not gated.
//  - pruned CELF seed evaluations must be provably irrelevant: the audit
//    hook re-runs every skipped from-scratch marginal and this test asserts
//    each one is ≤ 0 (it could never have entered the heap), and that the
//    pruned and unpruned engines emit byte-identical configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/catchment.h"
#include "core/config_io.h"
#include "core/orchestrator.h"
#include "obs/metrics.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

TEST(CatchmentPredictor, SupersetOfRealizedShiftOnSeededWorlds) {
  // 20 seeded worlds; in each, withdraw a handful of sessions one at a time
  // and compare the realized shifted-UG set against the prediction.
  std::size_t predicted_total = 0;
  std::size_t realized_total = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const test::World& w = test::SharedWorld(seed, 60, 5);
    const auto& peerings = w.deployment->peerings();
    const std::size_t n_ug = w.deployment->ugs().size();
    const CatchmentPredictor pred{*w.catalog, n_ug, peerings.size()};

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
      const auto span = pred.ShiftedUgs(util::PeeringId{
          static_cast<std::uint32_t>(target)});
      const std::set<std::uint32_t> predicted(span.begin(), span.end());
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

TEST(CatchmentPredictor, PredictShiftedUnionIsSortedUnique) {
  const test::World& w = test::SharedWorld(3, 60, 5);
  const auto& peerings = w.deployment->peerings();
  const CatchmentPredictor pred{*w.catalog, w.deployment->ugs().size(),
                                peerings.size()};
  std::vector<util::PeeringId> changed;
  for (std::size_t i = 0; i < peerings.size(); i += 3) {
    changed.push_back(peerings[i].id);
  }
  const auto joint = pred.PredictShifted(changed);
  EXPECT_TRUE(std::is_sorted(joint.begin(), joint.end()));
  EXPECT_EQ(std::adjacent_find(joint.begin(), joint.end()), joint.end());
  // The union covers each member catchment.
  for (const util::PeeringId g : changed) {
    for (const std::uint32_t u : pred.ShiftedUgs(g)) {
      EXPECT_TRUE(std::binary_search(joint.begin(), joint.end(), u));
    }
  }
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
