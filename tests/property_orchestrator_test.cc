// Property-based checks of Algorithm 1 across seeded worlds: budget and
// validity invariants, monotonicity in budget, bounds against the possible
// benefit, reuse dominating its ablation in the model, and determinism.
#include <gtest/gtest.h>

#include <string>

#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "obs/metrics.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

class OrchestratorPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    w_ = test::MakeWorld(GetParam(), 130, 8);
    inst_ = test::MakeInstance(w_, GetParam() + 77);
  }
  test::World w_;
  ProblemInstance inst_;
};

TEST_P(OrchestratorPropertyTest, ConfigIsValid) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = 6;
  Orchestrator orch{inst_, cfg};
  const auto config = orch.ComputeConfig();
  EXPECT_LE(config.PrefixCount(), 6u);
  for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
    EXPECT_FALSE(config.Sessions(p).empty());
    for (const auto sid : config.Sessions(p)) {
      // Every advertised session exists in the deployment...
      EXPECT_LT(sid.value(), w_.deployment->peerings().size());
      // ...and serves at least one UG.
      EXPECT_FALSE(inst_.ugs_with_peering[sid.value()].empty());
    }
    // Sessions within a prefix are unique and sorted.
    const auto& s = config.Sessions(p);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end());
  }
}

TEST_P(OrchestratorPropertyTest, PredictedBenefitWithinBounds) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = 8;
  Orchestrator orch{inst_, cfg};
  const auto pred = orch.Predict(orch.ComputeConfig());
  EXPECT_GE(pred.mean_ms, 0.0);
  EXPECT_LE(pred.upper_ms, inst_.TotalPossibleBenefitMs() + 1e-6);
}

TEST_P(OrchestratorPropertyTest, BudgetMonotonicity) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = 10;
  Orchestrator orch{inst_, cfg};
  const auto full = orch.ComputeConfig();
  double prev = -1.0;
  for (std::size_t b = 0; b <= full.PrefixCount(); ++b) {
    const double v = orch.Predict(Truncate(full, b)).mean_ms;
    EXPECT_GE(v, prev - 1e-9);
    prev = v;
  }
}

TEST_P(OrchestratorPropertyTest, ReuseAtLeastAsGoodInModel) {
  OrchestratorConfig with;
  with.prefix_budget = 4;
  OrchestratorConfig without = with;
  without.enable_reuse = false;
  Orchestrator a{inst_, with};
  Orchestrator b{inst_, without};
  EXPECT_GE(a.Predict(a.ComputeConfig()).mean_ms,
            b.Predict(b.ComputeConfig()).mean_ms - 1e-9);
}

TEST_P(OrchestratorPropertyTest, Deterministic) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = 5;
  Orchestrator a{inst_, cfg};
  Orchestrator b{inst_, cfg};
  const auto ca = a.ComputeConfig();
  const auto cb = b.ComputeConfig();
  ASSERT_EQ(ca.PrefixCount(), cb.PrefixCount());
  for (std::size_t p = 0; p < ca.PrefixCount(); ++p) {
    EXPECT_EQ(ca.Sessions(p), cb.Sessions(p));
  }
}

// The fixture instance with every option and anycast RTT moved onto a grid
// of five values, so effective RTTs often tie a UG's best expectation and
// equal-RTT candidates often share a prefix: the inputs on which the
// incremental engine's probe gate must still be exact. 13.7, 29.9 and 55.3
// each give fl(fl(m + m) + m) / 3 < m.
ProblemInstance TieHeavy(ProblemInstance inst) {
  constexpr double kGrid[] = {9.7, 13.7, 29.9, 55.3, 80.1};
  const auto snap = [&](double ms) {
    return kGrid[static_cast<std::size_t>(ms) % std::size(kGrid)];
  };
  for (double& ms : inst.anycast_rtt_ms) ms = snap(ms);
  for (auto& opts : inst.options) {
    for (IngressOption& o : opts) o.rtt_ms = snap(o.rtt_ms);
  }
  return inst;
}

// `ca`, the engine's plan, must equal the from-scratch reference's plan on
// the same model, prefix for prefix, and predict the same benefit.
void ExpectMatchesReference(const Orchestrator& orch,
                            const AdvertisementConfig& ca,
                            const std::string& where) {
  const AdvertisementConfig cb = orch.ComputeConfigUncached();
  ASSERT_EQ(ca.PrefixCount(), cb.PrefixCount()) << where;
  for (std::size_t p = 0; p < ca.PrefixCount(); ++p) {
    EXPECT_EQ(ca.Sessions(p), cb.Sessions(p)) << where << " prefix=" << p;
  }
  const Orchestrator::Prediction pa = orch.Predict(ca);
  const Orchestrator::Prediction pb = orch.Predict(cb);
  EXPECT_EQ(pa.lower_ms, pb.lower_ms) << where;
  EXPECT_EQ(pa.mean_ms, pb.mean_ms) << where;
  EXPECT_EQ(pa.estimated_ms, pb.estimated_ms) << where;
  EXPECT_EQ(pa.upper_ms, pb.upper_ms) << where;
}

// The incremental CELF engine (cross-round seed-marginal cache, per-UG
// surviving-set probes, the base_best probe gate) must produce the exact
// schedule of a from-scratch recompute. DESIGN.md "Incremental CELF
// evaluation" argues why; this checks it across seeded worlds, on the
// fixture instance and on its tie-heavy twin, where the gate must skip some
// probes.
TEST_P(OrchestratorPropertyTest, IncrementalMatchesNaiveRecompute) {
  obs::Counter& gated =
      obs::Metrics().GetCounter("orchestrator.celf.gated_probes");
  const ProblemInstance ties = TieHeavy(inst_);
  const ProblemInstance* const inputs[] = {&inst_, &ties};
  for (const ProblemInstance* inst : inputs) {
    const std::uint64_t gated0 = gated.Value();
    for (const std::size_t budget : {2u, 4u, 7u}) {
      OrchestratorConfig cfg;
      cfg.prefix_budget = budget;
      const Orchestrator orch{*inst, cfg};
      ExpectMatchesReference(orch, orch.ComputeConfig(),
                             (inst == &ties ? "ties budget=" : "budget=") +
                                 std::to_string(budget));
    }
    if (inst == &ties) {
      EXPECT_GT(gated.Value() - gated0, 0u);
    }
  }
}

// Same equivalence once the model holds learned preferences and measured
// RTTs — the regime where probes must track dominance as well as D_reuse —
// checked after every learning iteration, not only the last, at D_reuse
// values that make the window bite hard (500 km), partly (1500 km) and
// rarely (3000 km), on the fixture instance and its tie-heavy twin. The
// incremental calls must walk the candidate list at least once, so the walk
// is cross-checked too; the hand-made cases in core_orchestrator_test pin
// which probes answer in O(1).
TEST_P(OrchestratorPropertyTest, IncrementalMatchesNaiveWithLearnedModel) {
  obs::Counter& walks =
      obs::Metrics().GetCounter("orchestrator.celf.expectation_fallbacks");
  obs::Counter& gated =
      obs::Metrics().GetCounter("orchestrator.celf.gated_probes");
  const ProblemInstance ties = TieHeavy(inst_);
  const ProblemInstance* const inputs[] = {&inst_, &ties};
  for (const ProblemInstance* inst : inputs) {
    const std::uint64_t gated0 = gated.Value();
    for (const double d_reuse : {500.0, 1500.0, 3000.0}) {
      OrchestratorConfig cfg;
      cfg.prefix_budget = 6;
      cfg.d_reuse_km = d_reuse;
      Orchestrator learned{*inst, cfg};
      SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{GetParam() + 9}};
      std::uint64_t walk_count = 0;
      for (std::size_t iter = 0; iter < 3; ++iter) {
        (void)learned.RunLearningIteration(env, iter);
        const std::uint64_t walks0 = walks.Value();
        const auto ca = learned.ComputeConfig();
        walk_count += walks.Value() - walks0;
        ExpectMatchesReference(learned, ca,
                               std::string{inst == &ties ? "ties " : ""} +
                                   "d_reuse=" + std::to_string(d_reuse) +
                                   " iter=" + std::to_string(iter));
      }
      ASSERT_GT(learned.model().PreferenceCount(), 0u);
      EXPECT_GT(walk_count, 0u) << "d_reuse=" << d_reuse;
    }
    if (inst == &ties) {
      EXPECT_GT(gated.Value() - gated0, 0u);
    }
  }
}

// The seed-marginal cache must actually engage: across a multi-prefix run,
// later rounds reuse cached marginals (hits) and invalidate only peerings
// whose UGs improved (invalidation counts stay below the all-dirty total).
TEST_P(OrchestratorPropertyTest, SeedMarginalCacheEngages) {
  OrchestratorConfig cfg;
  // These fixture worlds are small and dense (most peerings serve an
  // improved UG most rounds), so a deep budget is needed before clean
  // peerings appear. Every seed yields hits by budget 8.
  cfg.prefix_budget = 8;
  Orchestrator orch{inst_, cfg};
  const auto hits0 = obs::Metrics().GetCounter("orchestrator.celf.cache_hits").Value();
  const auto inv0 =
      obs::Metrics().GetCounter("orchestrator.celf.cache_invalidations").Value();
  const auto config = orch.ComputeConfig();
  ASSERT_GT(config.PrefixCount(), 1u);
  const auto hits =
      obs::Metrics().GetCounter("orchestrator.celf.cache_hits").Value() - hits0;
  const auto invalidations =
      obs::Metrics().GetCounter("orchestrator.celf.cache_invalidations").Value() -
      inv0;
  // Round 1 marks everything dirty; with every later round all-dirty too the
  // hit count would be zero.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(invalidations, 0u);
}

TEST_P(OrchestratorPropertyTest, RealizedNonNegativeAndBounded) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = 6;
  cfg.max_learning_iterations = 2;
  Orchestrator orch{inst_, cfg};
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{GetParam() + 3}};
  const auto reports = orch.Learn(env);
  GroundTruthEvaluator eval{*w_.deployment, *w_.resolver, *w_.oracle};
  const double possible = eval.PossibleMeanImprovementMs(*w_.catalog, 0);
  for (const auto& r : reports) {
    EXPECT_GE(r.realized_ms, 0.0);
    EXPECT_LE(r.realized_ms, possible + 1.0);  // probe noise allowance
  }
}

TEST_P(OrchestratorPropertyTest, ObservationsOnlyFromAdvertisedSessions) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = 4;
  Orchestrator orch{inst_, cfg};
  const auto config = orch.ComputeConfig();
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{GetParam() + 4}};
  const auto obs = env.Execute(config);
  ASSERT_EQ(obs.size(), config.PrefixCount());
  for (std::size_t p = 0; p < obs.size(); ++p) {
    const auto& sessions = config.Sessions(p);
    for (const auto& ingress : obs[p].ingress_of_ug) {
      if (!ingress.has_value()) continue;
      EXPECT_TRUE(std::binary_search(sessions.begin(), sessions.end(),
                                     *ingress));
    }
  }
}

TEST_P(OrchestratorPropertyTest, PainterDominatesBaselinesInModel) {
  // The Fig. 6a invariant, per seed: PAINTER's modeled estimated benefit at
  // a small budget is at least every baseline's.
  constexpr std::size_t kBudget = 3;
  OrchestratorConfig cfg;
  cfg.prefix_budget = kBudget;
  Orchestrator orch{inst_, cfg};
  const RoutingModel model{inst_.UgCount()};
  const ExpectationParams params;
  const double painter =
      PredictBenefit(inst_, model, orch.ComputeConfig(), params).estimated_ms;
  EXPECT_GE(painter,
            PredictBenefit(inst_, model,
                           OnePerPop(*w_.deployment, inst_, kBudget), params)
                    .estimated_ms -
                1e-9);
  EXPECT_GE(painter,
            PredictBenefit(inst_, model,
                           OnePerPeering(*w_.deployment, inst_, kBudget),
                           params)
                    .estimated_ms -
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrchestratorPropertyTest,
                         ::testing::Values(3, 17, 64, 301, 888));

}  // namespace
}  // namespace painter::core
