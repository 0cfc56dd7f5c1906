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
#include <vector>

#include "core/orchestrator.h"
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

}  // namespace
}  // namespace painter::core
