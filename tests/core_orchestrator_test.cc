#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "core/evaluate.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "obs/metrics.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

class OrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = test::MakeWorld();
    inst_ = test::MakeInstance(w_);
  }
  OrchestratorConfig Cfg(std::size_t budget) {
    OrchestratorConfig cfg;
    cfg.prefix_budget = budget;
    cfg.max_learning_iterations = 3;
    return cfg;
  }
  test::World w_;
  ProblemInstance inst_;
};

TEST_F(OrchestratorTest, RespectsBudget) {
  Orchestrator orch{inst_, Cfg(3)};
  const auto cfg = orch.ComputeConfig();
  EXPECT_LE(cfg.PrefixCount(), 3u);
}

TEST_F(OrchestratorTest, PredictedBenefitNonNegativeAndOrdered) {
  Orchestrator orch{inst_, Cfg(5)};
  const auto cfg = orch.ComputeConfig();
  const auto pred = orch.Predict(cfg);
  EXPECT_GE(pred.lower_ms, 0.0);
  EXPECT_LE(pred.lower_ms, pred.mean_ms + 1e-9);
  EXPECT_LE(pred.mean_ms, pred.upper_ms + 1e-9);
  EXPECT_GE(pred.estimated_ms, pred.lower_ms - 1e-9);
  EXPECT_LE(pred.estimated_ms, pred.upper_ms + 1e-9);
  EXPECT_GT(pred.mean_ms, 0.0);  // some UG must benefit in this world
}

TEST_F(OrchestratorTest, MoreBudgetNeverPredictsWorse) {
  Orchestrator orch{inst_, Cfg(8)};
  const auto cfg = orch.ComputeConfig();
  double prev = -1.0;
  for (std::size_t b = 1; b <= cfg.PrefixCount(); ++b) {
    const auto pred = orch.Predict(Truncate(cfg, b));
    EXPECT_GE(pred.mean_ms, prev - 1e-9);
    prev = pred.mean_ms;
  }
}

TEST_F(OrchestratorTest, EveryAdvertisedSessionHasAUser) {
  Orchestrator orch{inst_, Cfg(4)};
  const auto cfg = orch.ComputeConfig();
  const FlatPeeringIndex flat{inst_};
  for (std::size_t p = 0; p < cfg.PrefixCount(); ++p) {
    for (const auto sid : cfg.Sessions(p)) {
      EXPECT_LT(flat.offset[sid.value()], flat.offset[sid.value() + 1]);
    }
  }
}

TEST_F(OrchestratorTest, ReuseDisabledGivesSingletonPrefixes) {
  auto cfg = Cfg(4);
  cfg.enable_reuse = false;
  Orchestrator orch{inst_, cfg};
  const auto result = orch.ComputeConfig();
  for (std::size_t p = 0; p < result.PrefixCount(); ++p) {
    EXPECT_EQ(result.Sessions(p).size(), 1u);
  }
}

TEST_F(OrchestratorTest, ReuseUsesFewerPrefixesForSameBenefit) {
  // With reuse enabled, the same budget should predict at least the benefit
  // of the no-reuse ablation (it strictly generalizes it).
  Orchestrator with{inst_, Cfg(4)};
  auto cfg = Cfg(4);
  cfg.enable_reuse = false;
  Orchestrator without{inst_, cfg};
  const auto pw = with.Predict(with.ComputeConfig());
  const auto po = without.Predict(without.ComputeConfig());
  EXPECT_GE(pw.mean_ms, po.mean_ms - 1e-9);
}

TEST_F(OrchestratorTest, LearnImprovesOrHolds) {
  Orchestrator orch{inst_, Cfg(5)};
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
  const auto reports = orch.Learn(env);
  ASSERT_FALSE(reports.empty());
  // The best realized benefit across iterations >= the un-learned first
  // iteration (learning may transiently dip while digesting surprising
  // observations, but must not be strictly harmful overall).
  double best = 0.0;
  for (const auto& r : reports) best = std::max(best, r.realized_ms);
  EXPECT_GE(best, reports.front().realized_ms - 1e-6);
  for (const auto& r : reports) {
    EXPECT_GE(r.realized_ms, 0.0);
    EXPECT_LE(r.prefixes_used, 5u);
  }
}

TEST_F(OrchestratorTest, LearningShrinksUncertainty) {
  Orchestrator orch{inst_, Cfg(5)};
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
  const auto reports = orch.Learn(env);
  ASSERT_FALSE(reports.empty());
  // Some learned iteration must be at least as certain as the unlearned
  // first one (observations replace equal-likelihood assumptions; individual
  // iterations can widen if the greedy reuses more aggressively).
  const auto& first = reports.front().predicted;
  double narrowest = first.upper_ms - first.lower_ms;
  for (const auto& r : reports) {
    narrowest = std::min(narrowest, r.predicted.upper_ms - r.predicted.lower_ms);
  }
  EXPECT_LE(narrowest, first.upper_ms - first.lower_ms + 1e-6);
}

TEST_F(OrchestratorTest, AbsorbRecordsObservations) {
  Orchestrator orch{inst_, Cfg(3)};
  const auto cfg = orch.ComputeConfig();
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{4}};
  const auto obs = env.Execute(cfg);
  EXPECT_EQ(orch.model().PreferenceCount(), 0u);
  orch.Absorb(cfg, obs);
  // With multi-session prefixes and many UGs, some preference must be learned
  // unless every prefix is a singleton.
  bool any_multi = false;
  for (std::size_t p = 0; p < cfg.PrefixCount(); ++p) {
    if (cfg.Sessions(p).size() > 1) any_multi = true;
  }
  if (any_multi) {
    EXPECT_GT(orch.model().PreferenceCount(), 0u);
  }
}

// Absorb gathers each prefix's per-UG candidates by walking the advertised
// sessions' flat-index ranges. On a prefix whose sessions mix plain,
// prepended, lower-pref and no-export announcements, the model it builds
// must equal one fed, per UG, its compliant options among the sessions in
// options order, filtered to the chosen ingress's attributes.
TEST_F(OrchestratorTest, AbsorbMatchesPerOptionIntersection) {
  const SessionAttr variants[] = {
      SessionAttr{},
      SessionAttr{.prepend = 1},
      SessionAttr{.community = bgpsim::Community::kLowerPref},
      SessionAttr{.prepend = 2},
      SessionAttr{.community = bgpsim::Community::kNoExportUp}};
  std::vector<util::PeeringId> mixed;
  std::vector<SessionAttr> mixed_attrs;
  std::vector<util::PeeringId> plain;
  for (std::uint32_t g = 0; g < inst_.peering_count; ++g) {
    if (g % 2 == 0) {
      mixed.push_back(util::PeeringId{g});
      mixed_attrs.push_back(variants[(g / 2) % std::size(variants)]);
    } else if (g % 4 == 1) {
      plain.push_back(util::PeeringId{g});
    }
  }
  AdvertisementConfig cfg;
  cfg.AddPrefix(mixed, mixed_attrs);
  cfg.AddPrefix(plain);
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{6}};
  const auto obs = env.Execute(cfg);
  Orchestrator orch{inst_, Cfg(2)};
  orch.Absorb(cfg, obs);

  RoutingModel ref{inst_.UgCount()};
  std::size_t filtered = 0;
  for (std::size_t p = 0; p < cfg.PrefixCount(); ++p) {
    const auto& sessions = cfg.Sessions(p);
    const auto& attrs = cfg.Attrs(p);
    for (std::uint32_t u = 0; u < inst_.UgCount(); ++u) {
      const auto& ingress = obs[p].ingress_of_ug[u];
      if (!ingress.has_value()) continue;
      const SessionAttr chosen_attr = cfg.AttrOf(p, *ingress);
      std::vector<util::PeeringId> cands;
      for (const IngressOption& opt : inst_.options[u]) {
        const auto it =
            std::lower_bound(sessions.begin(), sessions.end(), opt.peering);
        if (it == sessions.end() || *it != opt.peering) continue;
        if (attrs[static_cast<std::size_t>(it - sessions.begin())] !=
            chosen_attr) {
          ++filtered;
          continue;
        }
        cands.push_back(opt.peering);
      }
      ref.ObservePreference(u, *ingress, cands);
      ref.ObserveLatency(u, *ingress, obs[p].rtt_ms_of_ug[u]);
    }
  }
  ASSERT_GT(filtered, 0u);  // the attribute filter fired
  ASSERT_GT(ref.PreferenceCount(), 0u);
  const RoutingModel& got = orch.model();
  EXPECT_EQ(got.PreferenceCount(), ref.PreferenceCount());
  std::size_t mismatches = 0;
  for (std::uint32_t u = 0; u < inst_.UgCount(); ++u) {
    EXPECT_EQ(got.HasPreferences(u), ref.HasPreferences(u));
    for (const IngressOption& a : inst_.options[u]) {
      mismatches +=
          got.MeasuredRtt(u, a.peering) != ref.MeasuredRtt(u, a.peering);
      mismatches += got.HasWins(u, a.peering) != ref.HasWins(u, a.peering);
      for (const IngressOption& b : inst_.options[u]) {
        mismatches += got.Prefers(u, a.peering, b.peering) !=
                      ref.Prefers(u, a.peering, b.peering);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // An observation vector shorter than the UG count is rejected.
  auto short_obs = obs;
  short_obs[1].ingress_of_ug.pop_back();
  Orchestrator fresh{inst_, Cfg(2)};
  EXPECT_THROW(fresh.Absorb(cfg, short_obs), std::out_of_range);
}

TEST_F(OrchestratorTest, LearningDisabledDoesNotTouchModel) {
  auto c = Cfg(3);
  c.enable_learning = false;
  Orchestrator orch{inst_, c};
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{4}};
  const auto reports = orch.Learn(env);
  EXPECT_EQ(reports.size(), 1u);
  EXPECT_EQ(orch.model().PreferenceCount(), 0u);
}

TEST_F(OrchestratorTest, ZeroBudgetYieldsEmptyConfig) {
  Orchestrator orch{inst_, Cfg(0)};
  const auto cfg = orch.ComputeConfig();
  EXPECT_EQ(cfg.PrefixCount(), 0u);
  EXPECT_DOUBLE_EQ(orch.Predict(cfg).mean_ms, 0.0);
}

// ComputeConfigUncached is the from-scratch reference even when the engine
// has a primed cross-call cache: it evaluates seeds, touches none of the
// engine's shortcuts (probe gate, seed cache, pruning, cross-call cache) and
// consumes no dirtiness. The engine call after it shows those shortcuts
// were there to take.
TEST_F(OrchestratorTest, ReferenceRunsFromScratch) {
  OrchestratorConfig cfg = Cfg(8);
  cfg.cross_call_seed_cache = true;
  Orchestrator orch{inst_, cfg};
  (void)orch.ComputeConfig();  // primes the cross-call cache
  ASSERT_EQ(orch.DirtyUgCount(), 0u);
  ASSERT_TRUE(orch.InvalidateUg(0));
  ASSERT_TRUE(orch.InvalidateUg(1));

  const char* const names[] = {
      "orchestrator.celf.evaluations", "orchestrator.celf.gated_probes",
      "orchestrator.celf.cache_hits", "celf.pruned.seed_evals",
      "orchestrator.celf.cross_seed_hits"};
  const auto snapshot = [&] {
    std::vector<std::uint64_t> v;
    for (const char* name : names) {
      v.push_back(obs::Metrics().CounterValue(name));
    }
    return v;
  };
  const std::vector<std::uint64_t> before = snapshot();
  const std::string reference = ConfigToString(orch.ComputeConfigUncached());
  const std::vector<std::uint64_t> after_ref = snapshot();
  EXPECT_GT(after_ref[0], before[0]) << names[0];
  for (std::size_t k = 1; k < std::size(names); ++k) {
    EXPECT_EQ(after_ref[k], before[k]) << names[k];
  }
  EXPECT_EQ(orch.DirtyUgCount(), 2u);

  EXPECT_EQ(ConfigToString(orch.ComputeConfig()), reference);
  const std::vector<std::uint64_t> after_engine = snapshot();
  for (std::size_t k = 0; k < std::size(names); ++k) {
    EXPECT_GT(after_engine[k], after_ref[k]) << names[k];
  }
  EXPECT_EQ(orch.DirtyUgCount(), 0u);
}

// The audit needs no cross-call cache: every ComputeConfig is checked.
TEST_F(OrchestratorTest, SeedCacheAuditRunsWithoutCrossCallCache) {
  OrchestratorConfig cfg = Cfg(5);
  cfg.seed_cache_audit = true;
  const Orchestrator orch{inst_, cfg};
  const char* const checks = "orchestrator.celf.seed_cache_audit_checks";
  const char* const mismatches =
      "orchestrator.celf.seed_cache_audit_mismatches";
  const std::uint64_t checks0 = obs::Metrics().CounterValue(checks);
  const std::uint64_t mismatches0 = obs::Metrics().CounterValue(mismatches);
  (void)orch.ComputeConfig();
  EXPECT_EQ(obs::Metrics().CounterValue(checks) - checks0, 1u);
  EXPECT_EQ(obs::Metrics().CounterValue(mismatches) - mismatches0, 0u);
}

// D_reuse must be a number >= 0: the engine's lone candidate is
// exclusion-free and its empty surviving set means every candidate is
// dominated only then. 0 and +inf are the extremes it must still match the
// reference at, with a learned model.
TEST_F(OrchestratorTest, DReuseMustBeANonNegativeNumber) {
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    OrchestratorConfig cfg = Cfg(4);
    cfg.d_reuse_km = bad;
    EXPECT_THROW((Orchestrator{inst_, cfg}), std::invalid_argument) << bad;
  }
  for (const double d : {0.0, std::numeric_limits<double>::infinity()}) {
    OrchestratorConfig cfg = Cfg(4);
    cfg.d_reuse_km = d;
    Orchestrator orch{inst_, cfg};
    SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
    for (std::size_t iter = 0; iter < 3; ++iter) {
      (void)orch.RunLearningIteration(env, iter);
      EXPECT_EQ(ConfigToString(orch.ComputeConfig()),
                ConfigToString(orch.ComputeConfigUncached()))
          << "d_reuse=" << d << " iter=" << iter;
    }
    EXPECT_GT(orch.model().PreferenceCount(), 0u);
  }
}

TEST(LearningTerminationTest, NegativeButImprovingDoesNotStop) {
  // Regression: with `best` initialized to 0 and a multiplicative-only
  // margin, an all-negative benefit sequence never advanced the best marker
  // and learning quit after `patience` rounds even while still improving.
  std::vector<double> realized;
  for (int i = 0; i < 6; ++i) {
    realized.push_back(-10.0 + i);  // strictly improving by 1 ms per round
    EXPECT_FALSE(LearningShouldStop(realized, 0.01, 1e-3, 2))
        << "after " << realized.size() << " reports";
  }
}

TEST(LearningTerminationTest, FlatNegativeStopsAfterPatience) {
  std::vector<double> realized{-3.0};
  EXPECT_FALSE(LearningShouldStop(realized, 0.01, 1e-3, 2));
  realized.push_back(-3.0);
  EXPECT_FALSE(LearningShouldStop(realized, 0.01, 1e-3, 2));
  realized.push_back(-3.0);
  EXPECT_TRUE(LearningShouldStop(realized, 0.01, 1e-3, 2));
}

TEST(LearningTerminationTest, ZeroBaselineNeedsAbsoluteEpsilon) {
  // Regression: at best == 0 the multiplicative tolerance is degenerate —
  // any ε > 0 used to count as an improvement and reset the patience clock.
  const std::vector<double> realized{0.0, 1e-9, 2e-9};
  EXPECT_TRUE(LearningShouldStop(realized, 0.01, 1e-3, 2));
}

TEST(LearningTerminationTest, RealImprovementResetsPatience) {
  const std::vector<double> improving{1.0, 1.0, 5.0};
  EXPECT_FALSE(LearningShouldStop(improving, 0.01, 1e-3, 2));
  const std::vector<double> flat{1.0, 5.0, 5.0, 5.0};
  EXPECT_TRUE(LearningShouldStop(flat, 0.01, 1e-3, 2));
}

// ------------------------------------------- Eq. 2 probes on hand-made UGs
//
// Hand-made instances drive the incremental engine's per-UG surviving set
// (DESIGN.md §8) through probe branches the fixture worlds reach only by
// chance. Each schedule is traced by hand in the test's comment and checked
// against ComputeConfigUncached, which runs the reference expectation; the
// counter deltas show which probes answered in O(1) and which walked the
// candidate list.

struct HandUg {
  double weight;
  double anycast_ms;
  std::vector<IngressOption> options;  // sorted by peering id
};

ProblemInstance HandInstance(std::size_t peerings,
                             const std::vector<HandUg>& ugs) {
  ProblemInstance inst;
  inst.peering_count = peerings;
  for (const HandUg& ug : ugs) {
    inst.ug_weight.push_back(ug.weight);
    inst.anycast_rtt_ms.push_back(ug.anycast_ms);
    inst.options.push_back(ug.options);
    inst.total_weight += ug.weight;
  }
  return inst;
}

IngressOption Opt(std::uint32_t peering, double rtt_ms, double km) {
  return IngressOption{.peering = util::PeeringId{peering},
                       .rtt_ms = rtt_ms,
                       .distance_km = km};
}

// One ComputeConfig call (ComputeConfigUncached with `reference`) with its
// CELF evaluations and its Eq. 2 probes that walked the candidate list.
struct CountedConfig {
  AdvertisementConfig config;
  std::uint64_t evaluations = 0;
  std::uint64_t walks = 0;
};

CountedConfig ComputeCounted(const Orchestrator& orch,
                             bool reference = false) {
  obs::Counter& evals =
      obs::Metrics().GetCounter("orchestrator.celf.evaluations");
  obs::Counter& walks =
      obs::Metrics().GetCounter("orchestrator.celf.expectation_fallbacks");
  const std::uint64_t evals0 = evals.Value();
  const std::uint64_t walks0 = walks.Value();
  CountedConfig out;
  out.config = reference ? orch.ComputeConfigUncached() : orch.ComputeConfig();
  out.evaluations = evals.Value() - evals0;
  out.walks = walks.Value() - walks0;
  return out;
}

std::vector<std::vector<util::PeeringId>> Schedule(
    const AdvertisementConfig& config) {
  std::vector<std::vector<util::PeeringId>> out;
  for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
    out.push_back(config.Sessions(p));
  }
  return out;
}

TEST(SurvivingSetProbeTest, PreferenceCycleMakesUgUnusable) {
  // UG0 can enter via a=0, b=1, c=2 (all within D_reuse) and has learned
  // a>b, b>c, c>a; d=3 (48.5 ms) is in no learned pair. UG1, UG2 (weight 2)
  // and UG3 hear only b, c and a.
  const util::PeeringId a{0};
  const util::PeeringId b{1};
  const util::PeeringId c{2};
  const util::PeeringId d{3};
  const ProblemInstance inst = HandInstance(
      4, {{1.0, 50.0, {Opt(0, 10.0, 100.0), Opt(1, 12.0, 200.0),
                       Opt(2, 14.0, 300.0), Opt(3, 48.5, 400.0)}},
          {1.0, 50.0, {Opt(1, 10.0, 100.0)}},
          {2.0, 50.0, {Opt(2, 10.0, 100.0)}},
          {1.0, 50.0, {Opt(0, 10.0, 100.0)}}});
  const auto learn_cycle = [&](RoutingModel& model) {
    const util::PeeringId ab[] = {a, b};
    const util::PeeringId bc[] = {b, c};
    const util::PeeringId ca[] = {c, a};
    ASSERT_TRUE(model.ObservePreference(0, a, ab));
    ASSERT_TRUE(model.ObservePreference(0, b, bc));
    ASSERT_TRUE(model.ObservePreference(0, c, ca));
    ASSERT_EQ(model.PreferenceCount(), 3u);
  };
  OrchestratorConfig cfg;
  cfg.prefix_budget = 2;
  Orchestrator orch{inst, cfg};
  learn_cycle(orch.mutable_model());

  // Prefix 0 seeds c (116) > a (80) > b (78) > d (1.5) and commits c.
  // Round 1: a is dominated by c and kills nothing (O(1), UG0 keeps 14); b
  // kills the survivor c (walk 1, UG0 12) and commits (walk 2). Round 2: a
  // is dominated by c and kills the survivor b (walk 3): every candidate is
  // dominated, UG0 loses its 12 ms, UG3's 40 ms gain still wins, and a
  // commits (walk 4) leaving UG0 unusable. Round 3: d joins a list with no
  // survivor (O(1), UG0 48.5) and commits (O(1)). Prefix 1 seeds a (38.5) >
  // b (36.5) > c (34.5), d adds nothing, and a commits; b is dominated by a
  // (O(1)) and c kills a (walk 5, 14 ms > 10 ms): both are rejected.
  const CountedConfig got = ComputeCounted(orch);
  const std::vector<std::vector<util::PeeringId>> want{{a, b, c, d}, {a}};
  EXPECT_EQ(Schedule(got.config), want);
  EXPECT_EQ(Schedule(orch.ComputeConfigUncached()), want);
  EXPECT_EQ(got.evaluations, 14u);
  EXPECT_EQ(got.walks, 5u);
  const ExpectationParams params = orch.config().Expectation();
  const util::PeeringId cycle[] = {a, b, c};
  EXPECT_FALSE(ComputeExpectation(inst, orch.model(), 0, cycle, params).usable);
  const PrefixExpectation e =
      ComputeExpectation(inst, orch.model(), 0, got.config.Sessions(0), params);
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 1u);
  EXPECT_EQ(e.mean_rtt, 48.5);
}

TEST(SurvivingSetProbeTest, WindowShiftDropsPartOfSurvivingSet) {
  // D_reuse 1000 km. UG0 can enter via a=0 (20 ms @ 2000 km), b=1 (22 ms @
  // 2800 km) and c=2 (30 ms @ 1500 km); UG1, UG2 and UG3 hear only b, c
  // and a. No learned preferences.
  const util::PeeringId a{0};
  const util::PeeringId b{1};
  const util::PeeringId c{2};
  const ProblemInstance inst = HandInstance(
      3, {{1.0, 50.0, {Opt(0, 20.0, 2000.0), Opt(1, 22.0, 2800.0),
                       Opt(2, 30.0, 1500.0)}},
          {1.0, 50.0, {Opt(1, 10.0, 100.0)}},
          {1.0, 50.0, {Opt(2, 10.0, 100.0)}},
          {1.0, 50.0, {Opt(0, 10.0, 100.0)}}});
  OrchestratorConfig cfg;
  cfg.prefix_budget = 1;
  cfg.d_reuse_km = 1000.0;
  const Orchestrator orch{inst, cfg};

  // Seeds a (70) > b (68) > c (60); a commits. Round 1: b lands inside the
  // window (O(1), UG0 21); c undercuts it but every survivor stays within
  // 1000 km of c (O(1), UG0 25); b commits (O(1)). Round 2: c moves the
  // window's lower edge to 1500 km, past b at 2800 km but not a (walk 1,
  // UG0 (20 + 30) / 2 = 25), and commits (walk 2).
  const CountedConfig got = ComputeCounted(orch);
  const std::vector<std::vector<util::PeeringId>> want{{a, b, c}};
  EXPECT_EQ(Schedule(got.config), want);
  EXPECT_EQ(Schedule(orch.ComputeConfigUncached()), want);
  EXPECT_EQ(got.evaluations, 6u);
  EXPECT_EQ(got.walks, 2u);
  const PrefixExpectation e =
      ComputeExpectation(inst, orch.model(), 0, got.config.Sessions(0),
                         orch.config().Expectation());
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 2u);
  EXPECT_EQ(e.mean_rtt, 25.0);
}

TEST(ProbeGateTest, RoundingResidueBelowBaseBestStillCounts) {
  // UG0 hears a=0, b=1 and c=2, each at exactly its anycast RTT m, where
  // fl(fl(m + m) + m) / 3 < m. UG1 hears a and c, UG2 b and c (10 ms each,
  // anycast 50); UG3 and UG4 (anycast 100) make a and b worth more than c.
  constexpr double m = 13.7;
  const util::PeeringId a{0};
  const util::PeeringId b{1};
  const util::PeeringId c{2};
  const ProblemInstance inst = HandInstance(
      3, {{1.0, m, {Opt(0, m, 100.0), Opt(1, m, 100.0), Opt(2, m, 100.0)}},
          {1.0, 50.0, {Opt(0, 10.0, 100.0), Opt(2, 10.0, 100.0)}},
          {1.0, 50.0, {Opt(1, 10.0, 100.0), Opt(2, 10.0, 100.0)}},
          {1.0, 100.0, {Opt(0, 10.0, 100.0)}},
          {1.0, 100.0, {Opt(1, 10.0, 100.0)}}});
  OrchestratorConfig cfg;
  cfg.prefix_budget = 1;
  const Orchestrator orch{inst, cfg};
  const ExpectationParams params = cfg.Expectation();
  const util::PeeringId abc[] = {a, b, c};
  const util::PeeringId ab[] = {a, b};
  ASSERT_EQ(ComputeExpectation(inst, orch.model(), 0, ab, params).mean_rtt, m);
  ASSERT_LT(ComputeExpectation(inst, orch.model(), 0, abc, params).mean_rtt,
            m);

  // Seeds a (130) = b (130) > c (80); a commits, then b (130 again: UG0's
  // mean stays m). c's fresh marginal is UG0's residue alone (UG1 and UG2
  // already have 10 ms), a few 1e-15 ms, still positive, so c commits. A
  // gate with no slack keeps UG0 closed (no candidate below m), skips that
  // probe, and rejects c.
  obs::Counter& gated =
      obs::Metrics().GetCounter("orchestrator.celf.gated_probes");
  const std::uint64_t gated0 = gated.Value();
  const CountedConfig got = ComputeCounted(orch);
  EXPECT_EQ(gated.Value() - gated0, 0u);
  const CountedConfig ref = ComputeCounted(orch, /*reference=*/true);
  const std::vector<std::vector<util::PeeringId>> want{{a, b, c}};
  EXPECT_EQ(Schedule(got.config), want);
  EXPECT_EQ(Schedule(ref.config), want);
  EXPECT_EQ(got.evaluations, 5u);
  EXPECT_EQ(ref.evaluations, 5u);
  const Orchestrator::Prediction pf = orch.Predict(got.config);
  const Orchestrator::Prediction pn = orch.Predict(ref.config);
  EXPECT_EQ(pf.mean_ms, pn.mean_ms);
  EXPECT_EQ(pf.lower_ms, pn.lower_ms);
  EXPECT_EQ(pf.upper_ms, pn.upper_ms);
  EXPECT_EQ(pf.estimated_ms, pn.estimated_ms);
}

TEST(ProbeGateTest, SparseSetsProbeWhatTheGateLetsThrough) {
  // D_reuse 1000 km, all PoPs at 100 km unless noted, no learned
  // preferences. A=0 reaches UG0 (20 ms, anycast 30) and UG2 (10, anycast
  // 50); B=1 reaches UG0 (35) and UG1 (10, anycast 15); C=2, D=3 and E=4
  // reach UG3 (anycast 50) at 20 ms @ 2000 km, 22 ms @ 2800 km and 30 ms @
  // 1500 km, and UG6, UG4 and UG5 (10 ms, anycast 50) respectively.
  const ProblemInstance inst = HandInstance(
      5, {{1.0, 30.0, {Opt(0, 20.0, 100.0), Opt(1, 35.0, 100.0)}},
          {1.0, 15.0, {Opt(1, 10.0, 100.0)}},
          {1.0, 50.0, {Opt(0, 10.0, 100.0)}},
          {1.0, 50.0, {Opt(2, 20.0, 2000.0), Opt(3, 22.0, 2800.0),
                       Opt(4, 30.0, 1500.0)}},
          {1.0, 50.0, {Opt(3, 10.0, 100.0)}},
          {1.0, 50.0, {Opt(4, 10.0, 100.0)}},
          {1.0, 50.0, {Opt(2, 10.0, 100.0)}}});
  OrchestratorConfig cfg;
  cfg.prefix_budget = 2;
  cfg.d_reuse_km = 1000.0;
  const Orchestrator orch{inst, cfg};

  // Prefix 0 seeds C (70) > D (68) > E (60) > A (50) > B (5); B's UG0 entry
  // (35 ms, not below anycast 30) is gated and dies. C commits; D (39, UG3
  // 21) and E (35: 1500 km undercuts C but keeps it, UG3 25) re-evaluate in
  // O(1); A re-evaluates to 50 and commits, which opens UG0. D
  // re-evaluates to 39 again and commits (O(1)). E moves UG3's lower window
  // edge to 1500 km, past D at 2800 km but not C (walk 1, UG3 25 against
  // 21: 36), and commits (walk 2, a re-derived set). B's re-evaluation walks UG0's dead entry through the
  // open set: UG0 goes from 20 to (20 + 35) / 2 = 27.5, so B reads
  // 5 - 7.5 < 0 and is rejected.
  // Prefix 1 re-seeds all five: B's UG0 entry stays dead (UG0 is closed
  // again), so B reads 5 and ties C (25 - 20) but has the lower id; A and
  // E read 0 (E's UG3 entry, 30 ms against 25, dies). B commits; C
  // re-evaluates to 5 and commits; D would raise UG3 to 21 and is rejected.
  // 18 evaluations of 2 entries each, 3 of them gated.
  obs::Counter& probes = obs::Metrics().GetCounter("orchestrator.celf.probes");
  obs::Counter& gated =
      obs::Metrics().GetCounter("orchestrator.celf.gated_probes");
  const std::uint64_t probes0 = probes.Value();
  const std::uint64_t gated0 = gated.Value();
  const CountedConfig got = ComputeCounted(orch);
  const std::uint64_t got_probes = probes.Value() - probes0;
  const std::uint64_t got_gated = gated.Value() - gated0;
  const std::vector<std::vector<util::PeeringId>> want{
      {util::PeeringId{0}, util::PeeringId{2}, util::PeeringId{3},
       util::PeeringId{4}},
      {util::PeeringId{1}, util::PeeringId{2}}};
  EXPECT_EQ(Schedule(got.config), want);
  EXPECT_EQ(Schedule(orch.ComputeConfigUncached()), want);
  EXPECT_EQ(got.evaluations, 18u);
  EXPECT_EQ(got_probes, 36u);
  EXPECT_EQ(got_gated, 3u);
  EXPECT_EQ(got.walks, 2u);
}

TEST(ProbeGateTest, RejectsMoreSessionsThanPairKeysHold) {
  const ProblemInstance small = HandInstance(
      RoutingModel::kMaxSessions, {{1.0, 50.0, {Opt(0, 10.0, 100.0)}}});
  EXPECT_NO_THROW((Orchestrator{small, OrchestratorConfig{}}));
  const ProblemInstance big = HandInstance(
      RoutingModel::kMaxSessions + 1, {{1.0, 50.0, {Opt(0, 10.0, 100.0)}}});
  EXPECT_THROW((Orchestrator{big, OrchestratorConfig{}}),
               std::invalid_argument);
}

TEST(AdvertisementConfigTest, AddAndQuery) {
  AdvertisementConfig cfg;
  const auto p = cfg.AddPrefix({util::PeeringId{3}, util::PeeringId{1},
                                util::PeeringId{3}});
  EXPECT_EQ(cfg.Sessions(p).size(), 2u);  // deduped
  EXPECT_EQ(cfg.Sessions(p).front(), util::PeeringId{1});  // sorted
  EXPECT_TRUE(cfg.Contains(p, util::PeeringId{3}));
  EXPECT_FALSE(cfg.Contains(p, util::PeeringId{2}));
  cfg.AddToPrefix(p, util::PeeringId{2});
  EXPECT_TRUE(cfg.Contains(p, util::PeeringId{2}));
  EXPECT_EQ(cfg.AnnouncementCount(), 3u);
  EXPECT_EQ(cfg.NonEmptyPrefixCount(), 1u);
}

TEST(SimEnvironmentTest, ObservationsMatchResolver) {
  const test::World& w = test::SharedWorld();
  SimEnvironment env{*w.resolver, *w.oracle, util::Rng{2}};
  AdvertisementConfig cfg;
  const util::PeeringId transit = w.deployment->TransitPeerings().front();
  cfg.AddPrefix({transit});
  const auto obs = env.Execute(cfg);
  ASSERT_EQ(obs.size(), 1u);
  const auto expected = w.resolver->Resolve(cfg.Sessions(0));
  for (std::uint32_t u = 0; u < expected.size(); ++u) {
    EXPECT_EQ(obs[0].ingress_of_ug[u], expected[u]);
    if (expected[u].has_value()) {
      EXPECT_GE(obs[0].rtt_ms_of_ug[u],
                w.oracle->TrueRtt(util::UgId{u}, *expected[u]).count());
    }
  }
}

}  // namespace
}  // namespace painter::core
