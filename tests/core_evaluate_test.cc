#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "tests/pin_hash.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

class EvaluateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = test::MakeWorld();
    inst_ = test::MakeInstance(w_);
    eval_ = std::make_unique<GroundTruthEvaluator>(*w_.deployment,
                                                   *w_.resolver, *w_.oracle);
  }
  AdvertisementConfig Painter(std::size_t budget) {
    OrchestratorConfig cfg;
    cfg.prefix_budget = budget;
    Orchestrator orch{inst_, cfg};
    return orch.ComputeConfig();
  }
  test::World w_;
  ProblemInstance inst_;
  std::unique_ptr<GroundTruthEvaluator> eval_;
};

TEST_F(EvaluateTest, PredictRangesOrdered) {
  const RoutingModel model{inst_.UgCount()};
  const auto cfg = OnePerPop(*w_.deployment, inst_, 4);
  const auto pred = PredictBenefit(inst_, model, cfg, {});
  EXPECT_LE(pred.lower_ms, pred.mean_ms + 1e-9);
  EXPECT_LE(pred.mean_ms, pred.upper_ms + 1e-9);
  EXPECT_GE(pred.estimated_ms, pred.lower_ms - 1e-9);
  EXPECT_LE(pred.estimated_ms, pred.upper_ms + 1e-9);
  EXPECT_GE(pred.lower_ms, 0.0);
}

TEST_F(EvaluateTest, OnePerPeeringHasNoUncertainty) {
  const RoutingModel model{inst_.UgCount()};
  const auto cfg = OnePerPeering(*w_.deployment, inst_, 10);
  const auto pred = PredictBenefit(inst_, model, cfg, {});
  EXPECT_NEAR(pred.lower_ms, pred.upper_ms, 1e-9);
  EXPECT_NEAR(pred.mean_ms, pred.estimated_ms, 1e-9);
}

TEST_F(EvaluateTest, PerPopHasWiderRangeThanPerPeering) {
  // The Fig. 14 structure: per-PoP prefixes expose many possibly-poor
  // candidates per UG, so their benefit range is wider.
  const RoutingModel model{inst_.UgCount()};
  const auto pop = PredictBenefit(inst_, model,
                                  OnePerPop(*w_.deployment, inst_, 6), {});
  const auto peering = PredictBenefit(
      inst_, model, OnePerPeering(*w_.deployment, inst_, 6), {});
  EXPECT_GT(pop.upper_ms - pop.lower_ms,
            peering.upper_ms - peering.lower_ms - 1e-9);
}

TEST_F(EvaluateTest, EmptyConfigPredictsZero) {
  const RoutingModel model{inst_.UgCount()};
  const auto pred = PredictBenefit(inst_, model, AdvertisementConfig{}, {});
  EXPECT_DOUBLE_EQ(pred.mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(pred.upper_ms, 0.0);
}

TEST_F(EvaluateTest, GroundTruthBoundedByPossible) {
  const auto cfg = Painter(6);
  eval_->SetConfig(cfg);
  const double realized = eval_->MeanImprovementMs(0);
  const double possible = eval_->PossibleMeanImprovementMs(*w_.catalog, 0);
  EXPECT_GE(realized, 0.0);
  EXPECT_LE(realized, possible + 1e-9);
}

TEST_F(EvaluateTest, DynamicAtLeastStatic) {
  const auto cfg = Painter(6);
  eval_->SetConfig(cfg);
  const auto choices = eval_->Choices(0);
  for (int day = 0; day <= 20; day += 4) {
    EXPECT_GE(eval_->MeanImprovementMs(day) + 1e-9,
              eval_->MeanImprovementStaticMs(choices, day));
  }
}

TEST_F(EvaluateTest, ChoicesIndexValidPrefixes) {
  const auto cfg = Painter(5);
  eval_->SetConfig(cfg);
  const auto choices = eval_->Choices(0);
  ASSERT_EQ(choices.size(), w_.deployment->ugs().size());
  for (const int c : choices) {
    EXPECT_GE(c, -1);
    EXPECT_LT(c, static_cast<int>(cfg.PrefixCount()));
  }
}

TEST_F(EvaluateTest, StaticChoiceAtDayZeroMatchesDynamic) {
  const auto cfg = Painter(5);
  eval_->SetConfig(cfg);
  const auto choices = eval_->Choices(0);
  EXPECT_NEAR(eval_->MeanImprovementStaticMs(choices, 0),
              eval_->MeanImprovementMs(0), 1e-9);
}

TEST_F(EvaluateTest, BenefitingUgsHaveRealHeadroom) {
  const auto benefiting = eval_->BenefitingUgs(*w_.catalog, 1.0);
  EXPECT_FALSE(benefiting.empty());
  EXPECT_LT(benefiting.size(), w_.deployment->ugs().size());
  for (const std::uint32_t u : benefiting) {
    const util::UgId id{u};
    double best = 1e18;
    for (const auto pid : w_.catalog->CompliantPeerings(id)) {
      best = std::min(best, w_.oracle->TrueRtt(id, pid).count());
    }
    // Anycast must exceed the best compliant option by > 1 ms.
    eval_->SetConfig(AdvertisementConfig{});
    EXPECT_GT(inst_.anycast_rtt_ms[u], best);  // probes only add latency
  }
}

TEST_F(EvaluateTest, HigherThresholdShrinksBenefitingSet) {
  const auto loose = eval_->BenefitingUgs(*w_.catalog, 0.5);
  const auto tight = eval_->BenefitingUgs(*w_.catalog, 20.0);
  EXPECT_LE(tight.size(), loose.size());
}

TEST_F(EvaluateTest, MeanOverUgsMatchesManualAverage) {
  const auto cfg = Painter(4);
  eval_->SetConfig(cfg);
  const auto subset = eval_->BenefitingUgs(*w_.catalog);
  const double reported = eval_->MeanImprovementOverUgsMs(subset, 0);
  EXPECT_GE(reported, 0.0);
  // Averaging over everyone dilutes relative to the benefiting subset.
  std::vector<std::uint32_t> everyone;
  for (const auto& ug : w_.deployment->ugs()) everyone.push_back(ug.id.value());
  EXPECT_GE(reported + 1e-9, eval_->MeanImprovementOverUgsMs(everyone, 0));
}

TEST_F(EvaluateTest, BenefitingUgsUsesRequestedDay) {
  // Regression: BenefitingUgs used the day-0 truth (TrueRtt / RttOf day 0)
  // regardless of the day the caller evaluated improvements at. Both sides
  // must come from the requested day's ground truth.
  const int day = 15;
  std::vector<util::PeeringId> all;
  for (const auto& p : w_.deployment->peerings()) all.push_back(p.id);
  const auto anycast = w_.resolver->Resolve(all);
  const auto benefiting = eval_->BenefitingUgs(*w_.catalog, 1.0, day);
  EXPECT_FALSE(benefiting.empty());
  for (const std::uint32_t u : benefiting) {
    const util::UgId id{u};
    ASSERT_TRUE(anycast.at(u).has_value());
    const double any =
        w_.oracle->TrueRttOnDay(id, *anycast.at(u), day).count();
    double best = any;
    for (const auto pid : w_.catalog->CompliantPeerings(id)) {
      best = std::min(best, w_.oracle->TrueRttOnDay(id, pid, day).count());
    }
    EXPECT_GT(any - best, 1.0) << "ug " << u << " at day " << day;
  }
}

TEST_F(EvaluateTest, BenefitingUgsDefaultsToDayZero) {
  EXPECT_EQ(eval_->BenefitingUgs(*w_.catalog, 1.0),
            eval_->BenefitingUgs(*w_.catalog, 1.0, 0));
}

TEST_F(EvaluateTest, TruncateMonotoneInModel) {
  const auto cfg = Painter(8);
  const RoutingModel model{inst_.UgCount()};
  double prev = -1.0;
  for (std::size_t b = 0; b <= cfg.PrefixCount(); ++b) {
    const double v = PredictBenefit(inst_, model, Truncate(cfg, b), {}).mean_ms;
    EXPECT_GE(v, prev - 1e-9);
    prev = v;
  }
}

TEST_F(EvaluateTest, DnsSteeringNeverBeatsPerFlow) {
  const auto cfg = Painter(6);
  const RoutingModel model{inst_.UgCount()};
  const double per_flow = PredictBenefit(inst_, model, cfg, {}).mean_ms;
  // Sweep resolver counts: any resolver partition is at most per-flow.
  for (const std::size_t resolvers : {1ul, 2ul, 8ul}) {
    DnsSteeringInput dns;
    dns.resolver_supports_ecs.assign(resolvers, false);
    dns.resolver_of_ug.resize(inst_.UgCount());
    for (std::uint32_t u = 0; u < inst_.UgCount(); ++u) {
      dns.resolver_of_ug[u] = u % resolvers;
    }
    EXPECT_LE(EvaluateDnsSteering(inst_, model, cfg, {}, dns),
              per_flow + 1e-9);
  }
}

TEST_F(EvaluateTest, FinerResolversGiveMoreDnsBenefit) {
  const auto cfg = Painter(6);
  const RoutingModel model{inst_.UgCount()};
  auto run = [&](std::size_t resolvers) {
    DnsSteeringInput dns;
    dns.resolver_supports_ecs.assign(resolvers, false);
    dns.resolver_of_ug.resize(inst_.UgCount());
    for (std::uint32_t u = 0; u < inst_.UgCount(); ++u) {
      dns.resolver_of_ug[u] = u % resolvers;
    }
    return EvaluateDnsSteering(inst_, model, cfg, {}, dns);
  };
  // A strictly finer partition by UG id refines the coarser one.
  EXPECT_LE(run(1), run(4) + 1e-9);
  EXPECT_LE(run(4), run(32) + 1e-9);
}

// Prediction pins (tests/pin_hash.h): the bit patterns of PredictBenefit's
// four fields and of EvaluateDnsSteering's value under three resolver
// layouts, on the fixture world. The pins were taken before PredictBenefit
// and EvaluateDnsSteering evaluated each UG in one pass over its options, so
// a reordered sum or a dropped candidate fails here even where no schedule
// moves.
void PinPrediction(test::Fnv1a& h, const ProblemInstance& inst,
                   const RoutingModel& model, const AdvertisementConfig& cfg,
                   const ExpectationParams& params) {
  const Orchestrator::Prediction pred =
      PredictBenefit(inst, model, cfg, params);
  h.Add(pred.lower_ms);
  h.Add(pred.mean_ms);
  h.Add(pred.estimated_ms);
  h.Add(pred.upper_ms);
  // One resolver without ECS; five with resolver 1 on ECS; one per UG.
  for (const std::size_t resolvers : {std::size_t{1}, std::size_t{5},
                                      inst.UgCount()}) {
    DnsSteeringInput dns;
    dns.resolver_supports_ecs.assign(resolvers, false);
    if (resolvers == 5) dns.resolver_supports_ecs[1] = true;
    dns.resolver_of_ug.resize(inst.UgCount());
    for (std::uint32_t u = 0; u < inst.UgCount(); ++u) {
      dns.resolver_of_ug[u] = static_cast<std::uint32_t>((u * 7) % resolvers);
    }
    h.Add(EvaluateDnsSteering(inst, model, cfg, params, dns));
  }
}

// `cfg` with every announcement given one of five attributes in turn:
// default, prepend 1, prepend 2, lower-pref, no-export.
AdvertisementConfig WithAttributes(const AdvertisementConfig& cfg) {
  const SessionAttr cycle[] = {
      SessionAttr{},
      SessionAttr{.prepend = 1},
      SessionAttr{.prepend = 2},
      SessionAttr{.community = bgpsim::Community::kLowerPref},
      SessionAttr{.community = bgpsim::Community::kNoExportUp}};
  AdvertisementConfig out;
  for (std::size_t p = 0; p < cfg.PrefixCount(); ++p) {
    std::vector<SessionAttr> attrs;
    for (std::size_t j = 0; j < cfg.Sessions(p).size(); ++j) {
      attrs.push_back(cycle[(p + j) % std::size(cycle)]);
    }
    out.AddPrefix(cfg.Sessions(p), attrs);
  }
  return out;
}

class PredictionPinTest : public EvaluateTest {
 protected:
  // The orchestrator's model after three learning iterations at budget 8.
  RoutingModel LearnedModel() {
    OrchestratorConfig cfg;
    cfg.prefix_budget = 8;
    Orchestrator orch{inst_, cfg};
    SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{17}};
    for (std::size_t iter = 0; iter < 3; ++iter) {
      (void)orch.RunLearningIteration(env, iter);
    }
    EXPECT_GT(orch.model().PreferenceCount(), 0u);
    return orch.model();
  }
  // A prefix budget's worth of plain configurations: the engine's plan, a
  // prefix per PoP (reuse, so D_reuse and dominance bite) and a prefix per
  // peering.
  std::vector<AdvertisementConfig> Plain() {
    return {Painter(8), OnePerPop(*w_.deployment, inst_, 6),
            OnePerPeering(*w_.deployment, inst_, 10)};
  }
};

TEST_F(PredictionPinTest, EmptyModel) {
  const RoutingModel model{inst_.UgCount()};
  test::Fnv1a h;
  for (const AdvertisementConfig& cfg : Plain()) {
    PinPrediction(h, inst_, model, cfg, {});
    PinPrediction(h, inst_, model, cfg, {.d_reuse_km = 500.0});
  }
  EXPECT_EQ(h.value(), 0xaac4fd6eaa37efecULL) << std::hex << h.value();
}

TEST_F(PredictionPinTest, LearnedModel) {
  const RoutingModel model = LearnedModel();
  test::Fnv1a h;
  for (const AdvertisementConfig& cfg : Plain()) {
    PinPrediction(h, inst_, model, cfg, {});
    PinPrediction(h, inst_, model, cfg, {.d_reuse_km = 500.0});
  }
  EXPECT_EQ(h.value(), 0x7872f59a72da68a1ULL) << std::hex << h.value();
}

// Prepend, lower-pref and no-export announcements, on the empty and the
// learned model.
TEST_F(PredictionPinTest, AttributedConfigs) {
  const RoutingModel empty{inst_.UgCount()};
  const RoutingModel learned = LearnedModel();
  test::Fnv1a h;
  for (const AdvertisementConfig& plain : Plain()) {
    const AdvertisementConfig cfg = WithAttributes(plain);
    ASSERT_FALSE(cfg.AllAttrsDefault());
    PinPrediction(h, inst_, empty, cfg, {});
    PinPrediction(h, inst_, learned, cfg, {});
    PinPrediction(h, inst_, learned, cfg, {.d_reuse_km = 500.0});
  }
  EXPECT_EQ(h.value(), 0x62f4e12705dbe271ULL) << std::hex << h.value();
}

// Session ids at or past peering_count, which no UG has as an option, and
// an empty prefix, in plain and attributed configurations.
TEST_F(PredictionPinTest, SessionsPastTheInstanceAndEmptyPrefixes) {
  const RoutingModel learned = LearnedModel();
  const auto past = [&](std::uint32_t k) {
    return util::PeeringId{static_cast<std::uint32_t>(inst_.peering_count) + k};
  };
  AdvertisementConfig cfg = Painter(4);
  cfg.AddPrefix({});
  cfg.AddPrefix({past(0), past(3)});
  std::vector<util::PeeringId> mixed = cfg.Sessions(0);
  mixed.push_back(past(0));
  mixed.push_back(past(1));
  cfg.AddPrefix(mixed);
  cfg.AddPrefix({});
  test::Fnv1a h;
  for (const RoutingModel* model :
       {&learned, static_cast<const RoutingModel*>(nullptr)}) {
    const RoutingModel empty{inst_.UgCount()};
    const RoutingModel& m = model != nullptr ? *model : empty;
    PinPrediction(h, inst_, m, cfg, {});
    PinPrediction(h, inst_, m, WithAttributes(cfg), {});
  }
  EXPECT_EQ(h.value(), 0x482e0d50847f1823ULL) << std::hex << h.value();
}

}  // namespace
}  // namespace painter::core
