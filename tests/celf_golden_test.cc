// Golden-schedule determinism test for the CELF engine.
//
// The schedules below were produced by the pre-incremental from-scratch
// engine (every seeding scan re-evaluates every peering, every expectation
// re-walks its candidate list) on the fixture worlds. Both ComputeConfig —
// the incremental engine: cross-round seed-marginal caching with dirty-UG
// invalidation, catchment pruning, the probe gate, running per-UG
// aggregates — and ComputeConfigUncached, the from-scratch reference, are
// required to reproduce them byte-for-byte. A mismatch here means the
// engine's "bit-identical" contract broke, even if the result is still a
// valid greedy schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/config_io.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "obs/metrics.h"
#include "tests/pin_hash.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

using Schedule = std::vector<std::vector<std::uint32_t>>;

Schedule ComputeSchedule(const ProblemInstance& inst, std::size_t budget,
                         bool reference, bool explicit_legacy_space) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = budget;
  if (explicit_legacy_space) {
    // A spelled-out budget-only action space must take the exact legacy
    // single-variant path (ActionSpaceConfig::Legacy() == true).
    cfg.action_space = ActionSpaceConfig{.max_prepend = 0,
                                         .enable_lower_pref = false,
                                         .enable_no_export = false};
  }
  const Orchestrator orch{inst, cfg};
  const auto config =
      reference ? orch.ComputeConfigUncached() : orch.ComputeConfig();
  EXPECT_TRUE(config.AllAttrsDefault());
  Schedule out;
  for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
    auto& prefix = out.emplace_back();
    for (const auto sid : config.Sessions(p)) prefix.push_back(sid.value());
  }
  return out;
}

void ExpectGolden(const ProblemInstance& inst, std::size_t budget,
                  const Schedule& golden) {
  // The engine, the reference and an explicitly spelled-out legacy action
  // space must each reproduce the golden pick sequence byte for byte.
  for (const bool reference : {false, true}) {
    const Schedule got = ComputeSchedule(inst, budget, reference,
                                         /*explicit_legacy_space=*/false);
    EXPECT_EQ(got, golden) << "reference=" << reference;
  }
  const Schedule explicit_space = ComputeSchedule(
      inst, budget, /*reference=*/false, /*explicit_legacy_space=*/true);
  EXPECT_EQ(explicit_space, golden) << "explicit legacy action space";
}

TEST(CelfGoldenSchedule, DefaultWorldBudget8) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  const Schedule golden{
      {9, 15, 18, 21, 41, 45, 46, 49, 50, 56, 82, 127, 129},
      {10, 12, 22, 27, 28, 29, 30, 52, 77, 84, 87, 95, 101, 107, 110, 117,
       128},
      {7, 26, 41, 44, 61, 63, 73, 89, 129},
      {13, 15, 36, 37, 56, 66, 82, 115, 117, 125},
      {2, 3, 11, 28, 51, 88, 104},
      {23, 26, 28, 30, 52, 82, 88, 100, 104, 106},
      {1, 4, 6, 8, 56, 115},
      {17, 19, 32, 66, 99},
  };
  ExpectGolden(inst, 8, golden);
}

struct SeededGolden {
  std::uint64_t seed;
  Schedule golden;
};

class CelfGoldenSeeds : public ::testing::TestWithParam<SeededGolden> {};

TEST_P(CelfGoldenSeeds, Budget5) {
  const auto& param = GetParam();
  const test::World& w = test::SharedWorld(param.seed, 130, 8);
  const auto inst = test::MakeInstance(w, param.seed + 77);
  ExpectGolden(inst, 5, param.golden);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CelfGoldenSeeds,
    ::testing::Values(
        SeededGolden{3,
                     {{14, 19, 30, 37, 55, 56, 68, 69, 80, 96, 121},
                      {1, 4, 5, 26, 27, 36, 64, 79, 100, 117},
                      {21, 26, 29, 51, 80, 94, 96, 109, 117, 125},
                      {26, 56, 61, 63, 94, 106, 111, 112, 119},
                      {7, 9, 55, 70, 79, 113}}},
        SeededGolden{17,
                     {{11, 17, 21, 30, 35, 51, 63, 88, 98, 117, 121, 125},
                      {6, 8, 10, 11, 55, 56, 59, 72, 81, 88, 126},
                      {1, 17, 35, 47, 48, 51, 64, 69, 77, 81, 82},
                      {14, 24, 27, 29, 85, 93, 94, 115, 116},
                      {20, 26, 28, 46, 55, 62, 98, 111, 117}}},
        SeededGolden{64,
                     {{2, 8, 12, 13, 20, 24, 77, 89, 93, 102, 121, 130},
                      {6, 26, 29, 31, 37, 57, 91, 102, 129},
                      {22, 23, 38, 50, 55, 57, 74, 89},
                      {1, 15, 29, 46, 52, 87, 88, 89, 92},
                      {13, 17, 28, 29, 39, 121}}},
        SeededGolden{301,
                     {{8, 9, 10, 32, 34, 35, 36, 41, 48, 56, 57, 73, 87, 88,
                       94, 110},
                      {17, 18, 21, 35, 56, 80, 88, 89},
                      {20, 33, 40, 54, 59, 65, 69, 72, 73, 81, 83, 88, 97,
                       109},
                      {29, 32, 35, 51, 56, 59, 61, 67, 73, 105},
                      {8, 24, 31, 54, 55, 80, 97}}},
        SeededGolden{888,
                     {{9, 17, 20, 21, 22, 27, 31, 34, 45, 52, 89, 100, 105,
                       111, 112, 119},
                      {10, 15, 31, 54, 87, 89, 90, 93, 109},
                      {12, 16, 31, 35, 39, 41, 58, 72, 99, 108},
                      {13, 14, 34, 52, 61, 89, 99, 112, 113, 115, 119},
                      {11, 24, 31, 65, 73, 90, 103, 113}}}));

// Counter pins. The schedules above pin what the engine picks; these pin how
// it gets there. Each run hashes (tests/pin_hash.h), per planning call, the
// config text and the delta of every orchestrator.celf.* / celf.pruned.*
// counter, first for ComputeConfig and then for ComputeConfigUncached on the
// same model state, which must return the same text. A refactor that keeps
// every schedule but changes how often the engine probes, walks a candidate
// list, prunes or serves a cached seed fails here.
constexpr const char* kCelfCounters[] = {
    "orchestrator.celf.evaluations",
    "orchestrator.celf.stale_reevals",
    "orchestrator.celf.cache_hits",
    "orchestrator.celf.cache_invalidations",
    "orchestrator.celf.expectation_fallbacks",
    "orchestrator.celf.probes",
    "orchestrator.celf.gated_probes",
    "orchestrator.celf.commits",
    "orchestrator.celf.cross_seed_hits",
    "orchestrator.celf.cross_seed_invalidations",
    "orchestrator.celf.seed_cache_audit_checks",
    "orchestrator.celf.seed_cache_audit_mismatches",
    "celf.pruned.seed_evals",
    "celf.pruned.audit_checks",
};

std::uint64_t CelfCounter(std::size_t k) {
  return obs::Metrics().GetCounter(kCelfCounters[k]).Value();
}

// Adds `call`'s config text and counter deltas to `h`; returns the text.
template <typename Call>
std::string PinCall(test::Fnv1a& h, Call call) {
  std::vector<std::uint64_t> before;
  for (std::size_t k = 0; k < std::size(kCelfCounters); ++k) {
    before.push_back(CelfCounter(k));
  }
  const std::string text = ConfigToString(call());
  for (const char c : text) {
    h.Add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  for (std::size_t k = 0; k < std::size(kCelfCounters); ++k) {
    h.Add(CelfCounter(k) - before[k]);
  }
  return text;
}

// One planning call on the engine and on the reference; returns the
// engine's configuration.
AdvertisementConfig PinPlan(test::Fnv1a& h, const Orchestrator& orch) {
  AdvertisementConfig config;
  const std::string engine = PinCall(h, [&] {
    config = orch.ComputeConfig();
    return config;
  });
  const std::string reference =
      PinCall(h, [&] { return orch.ComputeConfigUncached(); });
  EXPECT_EQ(engine, reference);
  return config;
}

TEST(CelfCounterPins, PlainPlans) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  for (const auto& [budget, pin] :
       {std::pair<std::size_t, std::uint64_t>{8, 0x8a4193bb79d7e8b4ULL},
        std::pair<std::size_t, std::uint64_t>{32, 0x019fcd3b6848b355ULL}}) {
    OrchestratorConfig cfg;
    cfg.prefix_budget = budget;
    const Orchestrator orch{inst, cfg};
    test::Fnv1a h;
    (void)PinPlan(h, orch);
    EXPECT_EQ(h.value(), pin) << "budget " << budget;
  }
}

// Plans 2 and 3 run against learned preferences, so the dominance scan
// reads loser rows and the surviving sets lose dominated candidates.
TEST(CelfCounterPins, ThreeLearningIterations) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  OrchestratorConfig cfg;
  cfg.prefix_budget = 8;
  Orchestrator orch{inst, cfg};
  SimEnvironment env{*w.resolver, *w.oracle, util::Rng{9}};
  test::Fnv1a h;
  for (int iter = 0; iter < 3; ++iter) {
    const AdvertisementConfig config = PinPlan(h, orch);
    orch.Absorb(config, env.Execute(config));
    ASSERT_GT(orch.model().PreferenceCount(), 0u) << "iteration " << iter;
  }
  EXPECT_EQ(h.value(), 0xb59875387d1753ccULL);
}

// A widened action space with no-export keeps a second seed slot, and the
// cross-call cache carries both slots between calls. Absorb and InvalidateUg
// dirty part of the cache between calls; the catchment audit re-runs every
// pruned seed of either slot, and its values join the hash.
TEST(CelfCounterPins, WideCrossCallWithNoExport) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  test::Fnv1a h;
  OrchestratorConfig cfg;
  cfg.prefix_budget = 8;
  cfg.action_space = ActionSpaceConfig{.max_prepend = 1,
                                       .enable_lower_pref = true,
                                       .enable_no_export = true};
  cfg.cross_call_seed_cache = true;
  cfg.catchment_audit = [&](util::PeeringId g, double fresh) {
    EXPECT_LE(fresh, 0.0);
    h.Add(static_cast<std::uint64_t>(g.value()));
    h.Add(fresh);
  };
  Orchestrator orch{inst, cfg};
  SimEnvironment env{*w.resolver, *w.oracle, util::Rng{5}};
  obs::Counter& cross_hits =
      obs::Metrics().GetCounter("orchestrator.celf.cross_seed_hits");
  const std::uint64_t cross_hits0 = cross_hits.Value();
  AdvertisementConfig config = PinPlan(h, orch);
  ASSERT_FALSE(config.AllAttrsDefault());
  orch.Absorb(config, env.Execute(config));
  config = PinPlan(h, orch);
  ASSERT_TRUE(orch.InvalidateUg(3));
  ASSERT_TRUE(orch.InvalidateUg(40));
  config = PinPlan(h, orch);
  orch.Absorb(config, env.Execute(config));
  (void)PinPlan(h, orch);
  EXPECT_GT(cross_hits.Value(), cross_hits0)
      << "no seed was served across calls";
  EXPECT_EQ(h.value(), 0xc9f958eea2c9a429ULL);
}

}  // namespace
}  // namespace painter::core
