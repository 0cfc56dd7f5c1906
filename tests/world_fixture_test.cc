// The SharedWorld cache contract: a cached world is indistinguishable from a
// freshly built one. World generation is a pure function of (seed, stubs,
// pops) and the oracle is stateless (callers supply the Rng), so the
// strongest check is to derive a full measured ProblemInstance from each and
// demand bit-identical contents — any hidden mutable state in the cached
// world would surface as a diff here.
#include "tests/world_fixture.h"

#include "gtest/gtest.h"

namespace painter::test {
namespace {

TEST(WorldFixture, CachedWorldMatchesFreshWorld) {
  // A key no other test uses, so this test exercises a cold insert too.
  const World& cached = SharedWorld(17, 100, 6);
  const World fresh = MakeWorld(17, 100, 6);

  const core::ProblemInstance a = MakeInstance(cached, 33);
  const core::ProblemInstance b = MakeInstance(fresh, 33);

  EXPECT_EQ(a.ug_weight, b.ug_weight);  // exact double equality throughout
  EXPECT_EQ(a.anycast_rtt_ms, b.anycast_rtt_ms);
  EXPECT_EQ(a.peering_count, b.peering_count);
  EXPECT_EQ(a.total_weight, b.total_weight);
  ASSERT_EQ(a.options.size(), b.options.size());
  for (std::size_t ug = 0; ug < a.options.size(); ++ug) {
    ASSERT_EQ(a.options[ug].size(), b.options[ug].size()) << "ug " << ug;
    for (std::size_t k = 0; k < a.options[ug].size(); ++k) {
      EXPECT_EQ(a.options[ug][k].peering, b.options[ug][k].peering);
      EXPECT_EQ(a.options[ug][k].rtt_ms, b.options[ug][k].rtt_ms);
      EXPECT_EQ(a.options[ug][k].distance_km, b.options[ug][k].distance_km);
    }
  }
}

TEST(WorldFixture, SharedWorldIsCachedPerKey) {
  const World& w1 = SharedWorld(17, 100, 6);
  const World& w2 = SharedWorld(17, 100, 6);
  EXPECT_EQ(&w1, &w2);  // same key -> same object, built once

  const World& w3 = SharedWorld(18, 100, 6);
  EXPECT_NE(&w1, &w3);
}

}  // namespace
}  // namespace painter::test
