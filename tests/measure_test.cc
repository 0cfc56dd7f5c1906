#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/sim_environment.h"
#include "measure/geolocation.h"
#include "tests/pin_hash.h"
#include "tests/world_fixture.h"

namespace painter::measure {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override { w_ = test::MakeWorld(); }
  util::UgId Ug0() const { return w_.deployment->ugs().front().id; }
  util::PeeringId Sess0() const { return w_.deployment->peerings().front().id; }
  test::World w_;
};

TEST_F(OracleTest, TrueRttDeterministic) {
  const auto a = w_.oracle->TrueRtt(Ug0(), Sess0());
  const auto b = w_.oracle->TrueRtt(Ug0(), Sess0());
  EXPECT_DOUBLE_EQ(a.count(), b.count());
}

TEST_F(OracleTest, TrueRttAboveFiberFloor) {
  // Ground truth must never beat the straight-fiber RTT plus overheads.
  const auto& metros = w_.internet().metros;
  for (const auto& ug : w_.deployment->ugs()) {
    for (const auto& sess : w_.deployment->peerings()) {
      const double d =
          topo::Distance(metros[ug.metro.value()].location,
                         metros[w_.deployment->pop(sess.pop).metro.value()]
                             .location)
              .count();
      const double floor = util::FiberRtt(util::Km{d}).count();
      EXPECT_GE(w_.oracle->TrueRtt(ug.id, sess.id).count(), floor);
    }
    if (ug.id.value() > 20) break;  // bounded runtime
  }
}

TEST_F(OracleTest, ProbeNeverBelowTruth) {
  util::Rng rng{5};
  const double truth = w_.oracle->TrueRtt(Ug0(), Sess0()).count();
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(w_.oracle->ProbeOnce(Ug0(), Sess0(), rng).count(), truth);
  }
}

TEST_F(OracleTest, MinOfManyPingsApproachesTruth) {
  util::Rng rng{5};
  const double truth = w_.oracle->TrueRtt(Ug0(), Sess0()).count();
  const double measured =
      w_.oracle->MeasureMin(Ug0(), Sess0(), rng, 31).count();
  EXPECT_GE(measured, truth);
  EXPECT_LE(measured - truth, 2.0);  // min of 31 exponential(1.5ms) draws
}

TEST_F(OracleTest, Day0MatchesBaseline) {
  EXPECT_DOUBLE_EQ(w_.oracle->TrueRttOnDay(Ug0(), Sess0(), 0).count(),
                   w_.oracle->TrueRtt(Ug0(), Sess0()).count());
}

TEST_F(OracleTest, RegimeShiftsOnlyInflate) {
  for (int day = 1; day <= 30; ++day) {
    for (std::uint32_t s = 0; s < 5; ++s) {
      const util::PeeringId sess{s};
      EXPECT_GE(w_.oracle->TrueRttOnDay(Ug0(), sess, day).count(),
                w_.oracle->TrueRtt(Ug0(), sess).count() - 1e-9);
    }
  }
}

TEST_F(OracleTest, SomeRegimeShiftOccursOverAMonth) {
  // With 4%/day shift probability across many (ug, session) pairs, some day
  // must show inflation.
  bool any = false;
  for (const auto& ug : w_.deployment->ugs()) {
    for (std::uint32_t s = 0; s < 10 && !any; ++s) {
      const util::PeeringId sess{s};
      const double base = w_.oracle->TrueRtt(ug.id, sess).count();
      for (int day = 1; day <= 25; ++day) {
        if (w_.oracle->TrueRttOnDay(ug.id, sess, day).count() > base * 1.2) {
          any = true;
          break;
        }
      }
    }
    if (any || ug.id.value() > 40) break;
  }
  EXPECT_TRUE(any);
}

TEST_F(OracleTest, TransitSessionsInflateMoreOnAverage) {
  // The config gives transit/tier-1 entry ASes extra inflation; verify the
  // aggregate ordering holds (this is what makes PAINTER's learning matter).
  double transit_sum = 0.0, transit_n = 0.0, other_sum = 0.0, other_n = 0.0;
  const auto& metros = w_.internet().metros;
  for (const auto& ug : w_.deployment->ugs()) {
    if (ug.id.value() > 60) break;
    for (const auto& sess : w_.deployment->peerings()) {
      const double d =
          topo::Distance(metros[ug.metro.value()].location,
                         metros[w_.deployment->pop(sess.pop).metro.value()]
                             .location)
              .count();
      if (d < 500.0) continue;  // inflation factor meaningless at zero range
      const double fiber = util::FiberRtt(util::Km{d}).count();
      const double excess =
          (w_.oracle->TrueRtt(ug.id, sess.id).count()) / fiber;
      const auto tier = w_.internet().graph.info(sess.peer).tier;
      if (tier == topo::AsTier::kTier1 || tier == topo::AsTier::kTransit) {
        transit_sum += excess;
        transit_n += 1;
      } else {
        other_sum += excess;
        other_n += 1;
      }
    }
  }
  ASSERT_GT(transit_n, 0.0);
  ASSERT_GT(other_n, 0.0);
  EXPECT_GT(transit_sum / transit_n, other_sum / other_n);
}

class GeoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = test::MakeWorld();
    targets_ = std::make_unique<GeoTargetCatalog>(*w_.oracle,
                                                  GeoTargetConfig{});
  }
  test::World w_;
  std::unique_ptr<GeoTargetCatalog> targets_;
};

TEST_F(GeoTest, SomeTargetsMissingSomePrecise) {
  std::size_t missing = 0, precise = 0, coarse = 0;
  for (const auto& sess : w_.deployment->peerings()) {
    const auto t = targets_->TargetFor(sess.id);
    if (!t.has_value()) {
      ++missing;
    } else if (t->uncertainty_km == 0.0) {
      ++precise;
    } else {
      ++coarse;
    }
  }
  EXPECT_GT(missing, 0u);
  EXPECT_GT(precise, 0u);
  EXPECT_GT(coarse, 0u);
}

TEST_F(GeoTest, EstimateRespectsUncertaintyBound) {
  for (const auto& sess : w_.deployment->peerings()) {
    const auto t = targets_->TargetFor(sess.id);
    const auto est = targets_->EstimateRtt(w_.deployment->ugs().front().id,
                                           sess.id, 100.0);
    if (!t.has_value() || t->uncertainty_km > 100.0) {
      EXPECT_FALSE(est.has_value());
    } else {
      EXPECT_TRUE(est.has_value());
    }
  }
}

TEST_F(GeoTest, PreciseTargetsEstimateAccurately) {
  const auto ug = w_.deployment->ugs().front().id;
  for (const auto& sess : w_.deployment->peerings()) {
    const auto t = targets_->TargetFor(sess.id);
    if (!t.has_value() || t->uncertainty_km > 1.0) continue;
    const auto est = targets_->EstimateRtt(ug, sess.id, 450.0);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->count(), w_.oracle->TrueRtt(ug, sess.id).count(), 0.6);
  }
}

TEST_F(GeoTest, EstimateErrorBoundedByDisplacement) {
  const auto ug = w_.deployment->ugs().front().id;
  for (const auto& sess : w_.deployment->peerings()) {
    const auto t = targets_->TargetFor(sess.id);
    if (!t.has_value()) continue;
    const auto est = targets_->EstimateRtt(ug, sess.id, 1e9);
    ASSERT_TRUE(est.has_value());
    // Error is bounded by the detour the displacement implies (the estimator
    // applies a detour factor of 1.8 over the straight-line fiber RTT).
    const double err =
        std::abs(est->count() - w_.oracle->TrueRtt(ug, sess.id).count());
    EXPECT_LE(err,
              1.8 * util::FiberRtt(util::Km{t->uncertainty_km}).count() + 1e-9);
  }
}

// Exact-output pins: FNV-1a (tests/pin_hash.h) over the IEEE-754 bit
// patterns of every value the oracle and its keyed-draw neighbours return
// over the test world.
using test::Fnv1a;

class OraclePinTest : public ::testing::Test {
 protected:
  const test::World& w_ = test::SharedWorld();

  // Every (UG, peering) pair of the first 50 UGs, in id order.
  template <typename Fn>
  std::uint64_t HashPairs(Fn value_of) const {
    Fnv1a h;
    for (const auto& ug : w_.deployment->ugs()) {
      if (ug.id.value() >= 50) break;
      for (const auto& sess : w_.deployment->peerings()) {
        h.Add(value_of(ug.id, sess.id));
      }
    }
    return h.value();
  }
};

TEST_F(OraclePinTest, TrueRtt) {
  EXPECT_EQ(HashPairs([&](util::UgId ug, util::PeeringId p) {
              return w_.oracle->TrueRtt(ug, p).count();
            }),
            0x2411459f0bb5b7f3ULL);
}

TEST_F(OraclePinTest, TrueRttOnDay) {
  const std::uint64_t want[] = {0x0cc1be9e70bed071ULL, 0xadfcb9c5d372ff99ULL,
                                0xa9a22b43e22d701cULL, 0x559fb36d6e17d065ULL};
  const int days[] = {1, 5, 17, 25};
  for (std::size_t i = 0; i < std::size(days); ++i) {
    EXPECT_EQ(HashPairs([&](util::UgId ug, util::PeeringId p) {
                return w_.oracle->TrueRttOnDay(ug, p, days[i]).count();
              }),
              want[i])
        << "day " << days[i];
  }
}

TEST_F(OraclePinTest, MeasureMin) {
  util::Rng rng{17};
  EXPECT_EQ(HashPairs([&](util::UgId ug, util::PeeringId p) {
              return w_.oracle->MeasureMin(ug, p, rng).count();
            }),
            0xd931a6ec223c8dedULL);
  EXPECT_EQ(HashPairs([&](util::UgId ug, util::PeeringId p) {
              return w_.oracle->MeasureMin(ug, p, rng, 3, 9).count();
            }),
            0x68f6a80777c66111ULL);
}

TEST_F(OraclePinTest, GeoEstimateRtt) {
  const GeoTargetCatalog targets{*w_.oracle, GeoTargetConfig{}};
  EXPECT_EQ(HashPairs([&](util::UgId ug, util::PeeringId p) {
              const auto est = targets.EstimateRtt(ug, p, 1e9);
              return est.has_value() ? est->count() : -1.0;
            }),
            0xa8b7358db1393a48ULL);
}

TEST_F(OraclePinTest, ResolveAllSessions) {
  std::vector<util::PeeringId> all;
  for (const auto& sess : w_.deployment->peerings()) all.push_back(sess.id);
  // The world's resolver, and one where a quarter of (AS, metro) pairs carry
  // an exit quirk, so the quirk draw decides many exits.
  const cloudsim::IngressResolver quirky{w_.internet(), *w_.deployment,
                                         {.quirk_prob = 0.25}};
  const std::uint64_t want[] = {0x5179ec56671b9321ULL, 0xdbd34adbea68f403ULL};
  const cloudsim::IngressResolver* resolvers[] = {w_.resolver.get(), &quirky};
  for (std::size_t i = 0; i < std::size(resolvers); ++i) {
    Fnv1a h;
    for (const auto& ingress : resolvers[i]->Resolve(all)) {
      h.Add(ingress.has_value() ? std::uint64_t{ingress->value()}
                                : ~std::uint64_t{0});
    }
    EXPECT_EQ(h.value(), want[i]) << "resolver " << i;
  }
}

// MeasureMinEach is a per-pair MeasureMin loop with the (UG, entry-AS) draw
// shared: equal value for value over each UG's compliant sessions and over
// every session, and it leaves `rng` where the loop leaves it.
TEST_F(OraclePinTest, MeasureMinEachEqualsMeasureMinLoop) {
  std::vector<util::PeeringId> all;
  for (const auto& sess : w_.deployment->peerings()) all.push_back(sess.id);
  for (const auto& ug : w_.deployment->ugs()) {
    const std::span<const util::PeeringId> lists[] = {
        w_.catalog->CompliantPeerings(ug.id), all};
    for (const auto peerings : lists) {
      for (const int count : {1, 7}) {
        util::Rng each_rng{ug.id.value() + 100};
        util::Rng loop_rng{ug.id.value() + 100};
        const auto each =
            w_.oracle->MeasureMinEach(ug.id, peerings, each_rng, count);
        ASSERT_EQ(each.size(), peerings.size());
        for (std::size_t i = 0; i < peerings.size(); ++i) {
          ASSERT_EQ(each[i].count(),
                    w_.oracle->MeasureMin(ug.id, peerings[i], loop_rng, count)
                        .count())
              << "ug " << ug.id << " session " << peerings[i];
        }
        EXPECT_EQ(each_rng.Uniform01(), loop_rng.Uniform01()) << "ug " << ug.id;
      }
    }
  }
}

// Every batch form is its per-pair loop, value for value, at day 0, on
// days inside and past the 24-day lookback window (1, 5, 17, 25, 40), over
// spans that repeat sessions, mix UGs or are empty; MeasureMinEach also
// leaves the stream where the loop leaves it.
TEST_F(OraclePinTest, BatchFormsEqualPerPairLoops) {
  const auto& sessions = w_.deployment->peerings();
  std::vector<util::PeeringId> all;
  for (const auto& sess : sessions) all.push_back(sess.id);
  for (const auto& ug : w_.deployment->ugs()) {
    if (ug.id.value() % 10 != 0) continue;
    const auto compliant = w_.catalog->CompliantPeerings(ug.id);
    // Compliant sessions, then the first three again, then the last one.
    std::vector<util::PeeringId> repeated(compliant.begin(), compliant.end());
    for (std::size_t i = 0; i < 3 && i < compliant.size(); ++i) {
      repeated.push_back(compliant[i]);
    }
    repeated.push_back(all.back());
    // Pairs across UGs: this UG and its neighbours, interleaved, so runs of
    // one UG restart and a UG's draws are made again after a gap.
    std::vector<UgPeering> pairs;
    for (std::size_t i = 0; i < 12; ++i) {
      const std::uint32_t u =
          (ug.id.value() + static_cast<std::uint32_t>(i % 3)) %
          static_cast<std::uint32_t>(w_.deployment->ugs().size());
      pairs.push_back({util::UgId{u}, all[(i * 7 + u) % all.size()]});
    }
    const std::span<const util::PeeringId> spans[] = {
        repeated, all, std::span<const util::PeeringId>{}};
    for (const int day : {0, 1, 5, 17, 25, 40}) {
      SCOPED_TRACE(testing::Message() << "ug " << ug.id << " day " << day);
      for (const auto peerings : spans) {
        const auto each = w_.oracle->TrueRttOnDayEach(ug.id, peerings, day);
        ASSERT_EQ(each.size(), peerings.size());
        for (std::size_t i = 0; i < peerings.size(); ++i) {
          ASSERT_EQ(each[i].count(),
                    w_.oracle->TrueRttOnDay(ug.id, peerings[i], day).count())
              << "session " << peerings[i];
        }
      }
      const auto truths = w_.oracle->TrueRttEach(pairs, day);
      ASSERT_EQ(truths.size(), pairs.size());
      util::Rng each_rng{ug.id.value() + 7};
      util::Rng loop_rng{ug.id.value() + 7};
      const auto measured = w_.oracle->MeasureMinEach(pairs, each_rng, 3, day);
      ASSERT_EQ(measured.size(), pairs.size());
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_EQ(truths[i].count(),
                  w_.oracle->TrueRttOnDay(pairs[i].ug, pairs[i].peering, day)
                      .count());
        ASSERT_EQ(measured[i].count(),
                  w_.oracle
                      ->MeasureMin(pairs[i].ug, pairs[i].peering, loop_rng, 3,
                                   day)
                      .count());
      }
      EXPECT_EQ(each_rng.Uniform01(), loop_rng.Uniform01());
      EXPECT_TRUE(w_.oracle->TrueRttEach({}, day).empty());
      EXPECT_TRUE(w_.oracle->MeasureMinEach({}, each_rng, 3, day).empty());
      EXPECT_EQ(each_rng.Uniform01(), loop_rng.Uniform01());
    }
  }
}

// An id past the deployment throws std::out_of_range from every form before
// any per-UG vector is read, wherever it sits in the batch.
TEST_F(OraclePinTest, OutOfRangeIdsThrow) {
  const auto ugs = static_cast<std::uint32_t>(w_.deployment->ugs().size());
  const auto sessions =
      static_cast<std::uint32_t>(w_.deployment->peerings().size());
  const util::UgId bad_ug{ugs};
  const util::PeeringId p0{0};
  const UgPeering pairs[] = {{util::UgId{0}, p0}, {bad_ug, p0}};
  const UgPeering bad_session[] = {{util::UgId{0}, util::PeeringId{sessions}}};
  const util::PeeringId one[] = {p0};
  util::Rng rng{3};
  EXPECT_THROW((void)w_.oracle->TrueRtt(bad_ug, p0), std::out_of_range);
  EXPECT_THROW((void)w_.oracle->TrueRttOnDay(bad_ug, p0, 9), std::out_of_range);
  EXPECT_THROW((void)w_.oracle->MeasureMin(bad_ug, p0, rng), std::out_of_range);
  EXPECT_THROW((void)w_.oracle->TrueRttEach(pairs, 9), std::out_of_range);
  EXPECT_THROW((void)w_.oracle->TrueRttEach(bad_session), std::out_of_range);
  EXPECT_THROW((void)w_.oracle->TrueRttOnDayEach(bad_ug, one, 9),
               std::out_of_range);
  EXPECT_THROW((void)w_.oracle->MeasureMinEach(pairs, rng), std::out_of_range);
  EXPECT_THROW((void)w_.oracle->MeasureMinEach(bad_ug, one, rng),
               std::out_of_range);
}

// "Min over count pings" needs a ping: every measuring form rejects
// count < 1 before it draws anything, and so do the two callers that pass a
// ping count through.
TEST_F(OraclePinTest, PingCountBelowOneThrowsBeforeDrawing) {
  const util::UgId ug{0};
  const util::PeeringId p0{0};
  const UgPeering pairs[] = {{ug, p0}};
  const util::PeeringId one[] = {p0};
  for (const int count : {0, -1}) {
    SCOPED_TRACE(testing::Message() << "count " << count);
    util::Rng rng{21};
    const util::Rng untouched = rng;
    EXPECT_THROW((void)w_.oracle->MeasureMin(ug, p0, rng, count),
                 std::invalid_argument);
    EXPECT_THROW((void)w_.oracle->MeasureMinEach(pairs, rng, count, 3),
                 std::invalid_argument);
    EXPECT_THROW((void)w_.oracle->MeasureMinEach(ug, one, rng, count),
                 std::invalid_argument);
    EXPECT_THROW((void)w_.oracle->MeasureMinEach({}, rng, count),
                 std::invalid_argument);
    EXPECT_THROW((void)core::BuildMeasuredInstance(
                     w_.internet(), *w_.deployment, *w_.catalog, *w_.resolver,
                     *w_.oracle, rng, count),
                 std::invalid_argument);
    core::SimEnvironment env{*w_.resolver, *w_.oracle, rng, count};
    core::AdvertisementConfig config;
    config.AddPrefix(std::vector<util::PeeringId>{p0});
    EXPECT_THROW((void)env.Execute(config), std::invalid_argument);
    util::Rng copy = untouched;
    EXPECT_EQ(rng.Uniform01(), copy.Uniform01());
  }
}

// The measured instance the orchestrator plans over: every anycast RTT and
// every option's (peering, RTT, UG→PoP distance, cone flag), so the
// instance builder's probe order and its distance source are pinned whole.
TEST(InstancePinTest, MeasuredInstance) {
  const core::ProblemInstance inst =
      test::MakeInstance(test::SharedWorld());
  Fnv1a h;
  for (double rtt : inst.anycast_rtt_ms) h.Add(rtt);
  for (const auto& opts : inst.options) {
    h.Add(std::uint64_t{opts.size()});
    for (const core::IngressOption& o : opts) {
      h.Add(std::uint64_t{o.peering.value()});
      h.Add(o.rtt_ms);
      h.Add(o.distance_km);
      h.Add(std::uint64_t{o.in_peer_cone});
    }
  }
  EXPECT_EQ(h.value(), 0x82dd9abba9ab5c85ULL);
}

TEST(MixSeedTest, OrderSensitive) {
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 1));
  EXPECT_EQ(MixSeed(1, 2, 3), MixSeed(1, 2, 3));
}

}  // namespace
}  // namespace painter::measure
