#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "core/routing_model.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

// Builds a tiny hand-rolled instance: 2 UGs, 4 sessions.
//   UG0: sessions {0:20ms @100km, 1:50ms @5000km, 2:30ms @800km}, anycast 40.
//   UG1: sessions {1:25ms @300km, 3:60ms @9000km}, anycast 35.
ProblemInstance TinyInstance() {
  ProblemInstance inst;
  inst.ug_weight = {2.0, 1.0};
  inst.anycast_rtt_ms = {40.0, 35.0};
  inst.options = {
      {{util::PeeringId{0}, 20.0, 100.0},
       {util::PeeringId{1}, 50.0, 5000.0},
       {util::PeeringId{2}, 30.0, 800.0}},
      {{util::PeeringId{1}, 25.0, 300.0},
       {util::PeeringId{3}, 60.0, 9000.0}},
  };
  inst.peering_count = 4;
  inst.total_weight = 3.0;
  return inst;
}

TEST(ProblemInstance, OptionLookup) {
  const auto inst = TinyInstance();
  ASSERT_NE(inst.Option(0, util::PeeringId{2}), nullptr);
  EXPECT_DOUBLE_EQ(inst.Option(0, util::PeeringId{2})->rtt_ms, 30.0);
  EXPECT_EQ(inst.Option(0, util::PeeringId{3}), nullptr);
}

TEST(ProblemInstance, TotalPossibleBenefit) {
  const auto inst = TinyInstance();
  // UG0 best 20 (saves 20, weight 2), UG1 best 25 (saves 10, weight 1).
  EXPECT_NEAR(inst.TotalPossibleBenefitMs(), (2 * 20 + 1 * 10) / 3.0, 1e-9);
}

TEST(Expectation, SingleCandidateExact) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId ad[] = {util::PeeringId{0}};
  const auto e = ComputeExpectation(inst, model, 0, ad, {});
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 1u);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 20.0);
  EXPECT_DOUBLE_EQ(e.lower_rtt, 20.0);
  EXPECT_DOUBLE_EQ(e.upper_rtt, 20.0);
  EXPECT_DOUBLE_EQ(e.estimated_rtt, 20.0);
}

TEST(Expectation, NonCompliantPrefixUnusable) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId ad[] = {util::PeeringId{3}};
  EXPECT_FALSE(ComputeExpectation(inst, model, 0, ad, {}).usable);
}

TEST(Expectation, MeanOverCandidates) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId ad[] = {util::PeeringId{0}, util::PeeringId{2}};
  const auto e = ComputeExpectation(inst, model, 0, ad,
                                    ExpectationParams{.d_reuse_km = 10000});
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 2u);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 25.0);
  EXPECT_DOUBLE_EQ(e.lower_rtt, 20.0);
  EXPECT_DOUBLE_EQ(e.upper_rtt, 30.0);
  // Estimated is inflation-weighted toward the nearer candidate.
  EXPECT_LT(e.estimated_rtt, e.mean_rtt);
}

TEST(Expectation, DreuseExcludesFarCandidates) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  // Sessions 0 (100 km) and 1 (5000 km): with D_reuse = 3000, the far one
  // is assumed unused; expectation collapses to session 0.
  const util::PeeringId ad[] = {util::PeeringId{0}, util::PeeringId{1}};
  const auto e = ComputeExpectation(inst, model, 0, ad,
                                    ExpectationParams{.d_reuse_km = 3000});
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 1u);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 20.0);
}

TEST(Expectation, DreuseKeepsCandidatesWithinThreshold) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId ad[] = {util::PeeringId{0}, util::PeeringId{2}};
  const auto e = ComputeExpectation(inst, model, 0, ad,
                                    ExpectationParams{.d_reuse_km = 3000});
  EXPECT_EQ(e.candidate_count, 2u);  // 800 - 100 = 700 < 3000
}

TEST(RoutingModelTest, PreferenceExcludesDominated) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId cands[] = {util::PeeringId{0}, util::PeeringId{2}};
  // Observed: UG0 entered via session 2 when 0 and 2 were both advertised —
  // so 0 is dominated whenever 2 is active.
  model.ObservePreference(0, util::PeeringId{2}, cands);
  const auto e = ComputeExpectation(inst, model, 0, cands,
                                    ExpectationParams{.d_reuse_km = 10000});
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 1u);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 30.0);  // only session 2 remains
}

TEST(RoutingModelTest, DominationOnlyWhenWinnerActive) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId cands[] = {util::PeeringId{0}, util::PeeringId{2}};
  model.ObservePreference(0, util::PeeringId{2}, cands);
  // Advertise only session 0: session 2 is absent, so no domination applies.
  const util::PeeringId ad[] = {util::PeeringId{0}};
  const auto e = ComputeExpectation(inst, model, 0, ad, {});
  ASSERT_TRUE(e.usable);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 20.0);
}

TEST(RoutingModelTest, NewObservationRetractsOpposite) {
  RoutingModel model{1};
  const util::PeeringId cands[] = {util::PeeringId{0}, util::PeeringId{1}};
  model.ObservePreference(0, util::PeeringId{0}, cands);
  EXPECT_TRUE(model.IsDominated(0, util::PeeringId{1}, cands));
  // Routing changed: now 1 is observed chosen.
  model.ObservePreference(0, util::PeeringId{1}, cands);
  EXPECT_TRUE(model.IsDominated(0, util::PeeringId{0}, cands));
  EXPECT_FALSE(model.IsDominated(0, util::PeeringId{1}, cands));
}

TEST(RoutingModelTest, MeasuredLatencyOverridesEstimate) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  model.ObserveLatency(0, util::PeeringId{0}, 15.0);
  const util::PeeringId ad[] = {util::PeeringId{0}};
  const auto e = ComputeExpectation(inst, model, 0, ad, {});
  EXPECT_DOUBLE_EQ(e.mean_rtt, 15.0);
}

TEST(RoutingModelTest, PreferenceCountTracksPairs) {
  RoutingModel model{2};
  EXPECT_EQ(model.PreferenceCount(), 0u);
  const util::PeeringId cands[] = {util::PeeringId{0}, util::PeeringId{1},
                                   util::PeeringId{2}};
  model.ObservePreference(1, util::PeeringId{0}, cands);
  EXPECT_EQ(model.PreferenceCount(), 2u);
  // Re-observing the same choice must not double count...
  model.ObservePreference(1, util::PeeringId{0}, cands);
  EXPECT_EQ(model.PreferenceCount(), 2u);
  // ...and a contradicting observation retracts the opposite pair, so the
  // running count stays consistent with the stored pairs: 0>1 is replaced by
  // 1>0 while 1>2 is added (0>2 remains).
  model.ObservePreference(1, util::PeeringId{1}, cands);
  EXPECT_EQ(model.PreferenceCount(), 3u);
}

TEST(RoutingModelTest, HasPreferencesPerUg) {
  RoutingModel model{3};
  EXPECT_FALSE(model.HasPreferences(0));
  const util::PeeringId cands[] = {util::PeeringId{4}, util::PeeringId{9}};
  model.ObservePreference(2, util::PeeringId{4}, cands);
  EXPECT_TRUE(model.HasPreferences(2));
  EXPECT_FALSE(model.HasPreferences(0));  // other UGs unaffected
  // Measured latencies alone don't constitute preferences.
  model.ObserveLatency(0, util::PeeringId{4}, 12.0);
  EXPECT_FALSE(model.HasPreferences(0));
}

TEST(RoutingModelTest, PrefersAndHasWinsAreDirected) {
  RoutingModel model{2};
  const util::PeeringId p3{3};
  const util::PeeringId p5{5};
  const util::PeeringId p7{7};
  const util::PeeringId cands[] = {p3, p5, p7};
  model.ObservePreference(1, p5, cands);  // 5>3, 5>7
  EXPECT_TRUE(model.Prefers(1, p5, p3));
  EXPECT_TRUE(model.Prefers(1, p5, p7));
  EXPECT_FALSE(model.Prefers(1, p3, p5));
  EXPECT_FALSE(model.Prefers(1, p5, p5));
  EXPECT_FALSE(model.Prefers(0, p5, p3));  // other UGs unaffected
  EXPECT_TRUE(model.HasWins(1, p5));
  EXPECT_FALSE(model.HasWins(1, p3));  // a loser, not a winner
  EXPECT_FALSE(model.HasWins(1, p7));  // sorts after the only winner
  EXPECT_FALSE(model.HasWins(1, util::PeeringId{0}));
  EXPECT_FALSE(model.HasWins(0, p5));
  // A contradicting observation retracts 5>7: 5 keeps its win over 3.
  const util::PeeringId pair[] = {p5, p7};
  model.ObservePreference(1, p7, pair);
  EXPECT_TRUE(model.Prefers(1, p7, p5));
  EXPECT_FALSE(model.Prefers(1, p5, p7));
  EXPECT_TRUE(model.HasWins(1, p7));
  EXPECT_TRUE(model.HasWins(1, p5));
}

TEST(RoutingModelTest, RejectsIdsBeyondSixteenBits) {
  RoutingModel model{1};
  const util::PeeringId top{RoutingModel::kMaxSessions - 1};
  const util::PeeringId over{RoutingModel::kMaxSessions};  // 65,536
  const util::PeeringId low{0};
  const util::PeeringId with_over[] = {low, over};
  EXPECT_THROW(model.ObservePreference(0, low, with_over), std::out_of_range);
  const util::PeeringId legal[] = {low, top};
  EXPECT_THROW(model.ObservePreference(0, over, legal), std::out_of_range);
  EXPECT_EQ(model.PreferenceCount(), 0u);  // a rejected call learns nothing
  EXPECT_FALSE(model.HasPreferences(0));

  // 65,536 would alias (1, 0) and (0, 65,535) in a 16-bit key: neither may
  // read as learned once (0, 65,535) is.
  const util::PeeringId pair[] = {low, top};
  ASSERT_TRUE(model.ObservePreference(0, low, pair));
  EXPECT_TRUE(model.Prefers(0, low, top));
  EXPECT_FALSE(model.Prefers(0, over, low));
  EXPECT_FALSE(model.Prefers(0, low, over));
  EXPECT_FALSE(model.HasWins(0, over));
  EXPECT_FALSE(model.HasWins(0, util::PeeringId{1}));
  EXPECT_TRUE(model.HasWins(0, low));
}

TEST(RoutingModelTest, PairKeysMatchReferenceSet) {
  // Random observations over ids that straddle every byte boundary of the
  // packed key, up to the largest legal id, against a std::set of pairs.
  const std::uint32_t ids[] = {0, 1, 2, 255, 256, 257, 4095, 4096,
                               65534, 65535};
  RoutingModel model{2};
  std::set<std::pair<std::uint32_t, std::uint32_t>> ref;
  std::mt19937 rng{19};
  std::uniform_int_distribution<std::size_t> pick{0, std::size(ids) - 1};
  for (int round = 0; round < 300; ++round) {
    std::vector<util::PeeringId> cands;
    for (int k = 0; k < 4; ++k) {
      cands.push_back(util::PeeringId{ids[pick(rng)]});
    }
    const util::PeeringId chosen = cands[pick(rng) % cands.size()];
    model.ObservePreference(1, chosen, cands);
    for (const util::PeeringId other : cands) {
      if (other == chosen) continue;
      ref.insert({chosen.value(), other.value()});
      ref.erase({other.value(), chosen.value()});
    }
    if (round % 30 != 29) continue;
    ASSERT_EQ(model.PreferenceCount(), ref.size()) << "round " << round;
    for (const std::uint32_t w : ids) {
      bool wins = false;
      for (const std::uint32_t l : ids) {
        const bool want = ref.contains({w, l});
        wins = wins || want;
        EXPECT_EQ(model.Prefers(1, util::PeeringId{w}, util::PeeringId{l}),
                  want)
            << w << " over " << l << " at round " << round;
      }
      EXPECT_EQ(model.HasWins(1, util::PeeringId{w}), wins)
          << w << " at round " << round;
    }
  }
  EXPECT_FALSE(model.HasPreferences(0));
}

TEST(RoutingModelTest, OutOfRangeUgThrows) {
  RoutingModel model{2};
  const util::PeeringId a{1};
  const util::PeeringId b{2};
  const util::PeeringId pair[] = {a, b};
  ASSERT_TRUE(model.ObservePreference(1, a, pair));
  ASSERT_TRUE(model.ObserveLatency(1, a, 10.0));
  EXPECT_THROW((void)model.Prefers(2, a, b), std::out_of_range);
  EXPECT_THROW((void)model.HasWins(2, a), std::out_of_range);
  EXPECT_THROW((void)model.HasPreferences(2), std::out_of_range);
  EXPECT_THROW((void)model.MeasuredRtt(2, a), std::out_of_range);
  EXPECT_THROW((void)model.IsDominated(2, b, pair), std::out_of_range);
  EXPECT_THROW((void)model.LocalIndex(2, a), std::out_of_range);
  EXPECT_THROW(model.ObservePreference(2, a, pair), std::out_of_range);
  EXPECT_THROW(model.ObserveLatency(2, a, 10.0), std::out_of_range);
  EXPECT_EQ(model.PreferenceCount(), 1u);
}

TEST(RoutingModelTest, LatencyRejectsIdsBeyondSixteenBits) {
  RoutingModel model{1};
  const util::PeeringId over{RoutingModel::kMaxSessions};
  EXPECT_THROW(model.ObserveLatency(0, over, 10.0), std::out_of_range);
  EXPECT_FALSE(model.MeasuredRtt(0, over).has_value());
  EXPECT_EQ(model.LocalIndex(0, over), RoutingModel::kUnobserved);
  EXPECT_EQ(model.FootprintBytes(), 0u);
}

// Random observations against std::set / std::map references, with
// retractions and latency updates at epsilon 0 and 2 ms. UG 1 observes 300
// distinct ids, so its loser rows grow to five words and its local indices
// pass what one byte holds; after each batch every id-based query, its
// local-index form and the packed byte form must agree with the reference.
TEST(RoutingModelTest, LocalIndexFormsMatchReference) {
  constexpr std::uint32_t kUgs = 3;
  // Per UG, the ids it draws from: UG 1 spreads 300 ids over the 16-bit
  // range, the others use 12.
  std::vector<std::vector<std::uint32_t>> pool(kUgs);
  for (std::uint32_t k = 0; k < 300; ++k) pool[1].push_back(k * 218 + 7);
  pool[1].push_back(RoutingModel::kMaxSessions - 1);
  for (const std::uint32_t u : {0u, 2u}) {
    for (std::uint32_t k = 0; k < 12; ++k) pool[u].push_back(k * 1000 + u);
  }
  RoutingModel model{kUgs};
  std::vector<std::set<std::pair<std::uint32_t, std::uint32_t>>> pairs(kUgs);
  std::vector<std::map<std::uint32_t, double>> rtts(kUgs);
  std::vector<std::set<std::uint32_t>> observed(kUgs);
  std::vector<std::map<std::uint32_t, std::uint32_t>> first_local(kUgs);
  std::mt19937 rng{29};
  const auto id = [](std::uint32_t v) { return util::PeeringId{v}; };

  const auto check = [&](int round) {
    std::size_t total = 0;
    for (std::uint32_t u = 0; u < kUgs; ++u) {
      total += pairs[u].size();
      EXPECT_EQ(model.HasPreferences(u), !pairs[u].empty());
      // Every id of the pool, plus one no UG ever sees.
      std::vector<std::uint32_t> ids = pool[u];
      ids.push_back(65000);
      std::vector<util::PeeringId> active;
      for (const std::uint32_t v : ids) active.push_back(id(v));
      for (const std::uint32_t w : ids) {
        const std::uint32_t lw = model.LocalIndex(u, id(w));
        ASSERT_EQ(lw != RoutingModel::kUnobserved, observed[u].contains(w))
            << "UG " << u << " id " << w << " round " << round;
        if (lw != RoutingModel::kUnobserved) {
          // Local indices are dense, never move, and survive packing.
          EXPECT_LT(lw, observed[u].size());
          const auto [it, fresh] = first_local[u].try_emplace(w, lw);
          EXPECT_EQ(it->second, lw);
        }
        EXPECT_EQ(model.UnpackLocal(u, id(w), RoutingModel::PackLocal(lw)),
                  lw);
        const auto rtt = rtts[u].find(w);
        const std::optional<double> want_rtt =
            rtt == rtts[u].end() ? std::nullopt
                                 : std::optional<double>{rtt->second};
        EXPECT_EQ(model.MeasuredRtt(u, id(w)), want_rtt);
        EXPECT_EQ(model.MeasuredRttLocal(u, lw), want_rtt);
        const std::uint64_t* row = model.LoserRow(u, lw);
        bool wins = false;
        bool dominated = false;
        for (const std::uint32_t l : ids) {
          const bool want = pairs[u].contains({w, l});
          const bool beaten = l != w && pairs[u].contains({l, w});
          wins = wins || want;
          dominated = dominated || beaten;
          const std::uint32_t ll = model.LocalIndex(u, id(l));
          ASSERT_EQ(model.Prefers(u, id(w), id(l)), want)
              << "UG " << u << ": " << w << " over " << l << " round "
              << round;
          EXPECT_EQ(model.PrefersLocal(u, lw, ll), want);
          if (row != nullptr && ll != RoutingModel::kUnobserved) {
            EXPECT_EQ(RoutingModel::RowHas(row, ll), want);
          }
        }
        EXPECT_TRUE(row != nullptr || !wins);
        EXPECT_EQ(model.HasWins(u, id(w)), wins);
        EXPECT_EQ(model.HasWinsLocal(u, lw), wins);
        EXPECT_EQ(model.IsDominated(u, id(w), active), dominated);
      }
    }
    EXPECT_EQ(model.PreferenceCount(), total) << "round " << round;
  };

  std::uniform_int_distribution<int> pick_ug{0, 5};
  std::uniform_int_distribution<int> pick_k{2, 6};
  std::uniform_real_distribution<double> pick_rtt{5.0, 25.0};
  for (int round = 1; round <= 1500; ++round) {
    const int r = pick_ug(rng);  // UG 1 gets two rounds in three
    const std::uint32_t ug = r < 4 ? 1u : static_cast<std::uint32_t>(r - 4) * 2;
    const auto& ids = pool[ug];
    std::uniform_int_distribution<std::size_t> pick_id{0, ids.size() - 1};
    if (round % 3 == 0) {
      // Latency, alternating the noise floor; small moves within 2 ms stay.
      const std::uint32_t v = ids[pick_id(rng)];
      const double eps = round % 2 == 0 ? 0.0 : 2.0;
      const auto it = rtts[ug].find(v);
      const double rtt = it != rtts[ug].end() && round % 5 == 0
                             ? it->second + 1.5
                             : pick_rtt(rng);
      bool want = true;
      if (it == rtts[ug].end()) {
        rtts[ug].emplace(v, rtt);
      } else if (std::abs(it->second - rtt) <= eps) {
        want = false;
      } else {
        it->second = rtt;
      }
      observed[ug].insert(v);
      ASSERT_EQ(model.ObserveLatency(ug, id(v), rtt, eps), want)
          << "round " << round;
    } else {
      std::vector<util::PeeringId> cands;
      const int k = pick_k(rng);
      for (int c = 0; c < k; ++c) cands.push_back(id(ids[pick_id(rng)]));
      // Mostly one of the candidates; sometimes an outside ingress.
      const util::PeeringId chosen =
          round % 7 == 0 ? id(ids[pick_id(rng)]) : cands[pick_id(rng) % k];
      bool want = false;
      for (const util::PeeringId other : cands) {
        if (other == chosen) continue;
        observed[ug].insert(chosen.value());
        observed[ug].insert(other.value());
        want = pairs[ug].insert({chosen.value(), other.value()}).second ||
               want;
        want = pairs[ug].erase({other.value(), chosen.value()}) > 0 || want;
      }
      ASSERT_EQ(model.ObservePreference(ug, chosen, cands), want)
          << "round " << round;
    }
    if (round % 100 == 0) check(round);
  }
  ASSERT_GT(observed[1].size(), 254u);  // rows of five words, escaped bytes
  EXPECT_GT(model.FootprintBytes(), 0u);
}

// LocalIndices resolves a sorted option list in one merge against the UG's
// ids; it must agree with LocalIndex option by option: on ids the UG never
// observed, on ids at or past 2^16 (which no key can hold), on a UG with no
// state, and on a UG with more than 253 observed ids, whose later local
// indices take PackLocal's escape byte 255.
TEST(RoutingModelTest, LocalIndicesMatchLocalIndex) {
  const auto id = [](std::uint32_t v) { return util::PeeringId{v}; };
  RoutingModel model{3};
  // UG 1 observes 300 ids in descending order, so local order is not id
  // order, and the largest storable id last.
  std::set<std::uint32_t> ids;
  for (std::uint32_t k = 300; k-- > 0;) {
    ASSERT_TRUE(model.ObserveLatency(1, id(k * 211 + 3), 10.0 + k));
    ids.insert(k * 211 + 3);
  }
  ASSERT_TRUE(model.ObserveLatency(1, id(RoutingModel::kMaxSessions - 1), 9.0));
  ids.insert(RoutingModel::kMaxSessions - 1);
  // UG 2 observes three ids through a preference.
  const std::vector<util::PeeringId> cands = {id(40), id(7), id(3)};
  ASSERT_TRUE(model.ObservePreference(2, id(3), cands));
  for (const util::PeeringId c : cands) ids.insert(c.value());
  // Ids no UG observed, between and past the observed ones, and past 2^16.
  for (std::uint32_t v = 1; v < 64000; v += 997) ids.insert(v);
  for (const std::uint32_t v : {RoutingModel::kMaxSessions,
                                RoutingModel::kMaxSessions + 3u, 1u << 20}) {
    ids.insert(v);
  }
  std::vector<IngressOption> opts;
  for (const std::uint32_t v : ids) opts.push_back(IngressOption{id(v)});

  std::size_t escaped = 0;
  for (std::uint32_t u = 0; u < 3; ++u) {
    std::vector<std::uint32_t> out(opts.size(), 12345);
    model.LocalIndices(u, opts, out);
    std::size_t observed = 0;
    for (std::size_t k = 0; k < opts.size(); ++k) {
      ASSERT_EQ(out[k], model.LocalIndex(u, opts[k].peering))
          << "UG " << u << " id " << opts[k].peering.value();
      if (out[k] == RoutingModel::kUnobserved) continue;
      ++observed;
      if (RoutingModel::PackLocal(out[k]) == 255) {
        ++escaped;
        EXPECT_EQ(model.UnpackLocal(u, opts[k].peering, 255), out[k]);
      }
    }
    EXPECT_EQ(observed, u == 0 ? 0u : u == 1 ? 301u : 3u) << "UG " << u;
  }
  EXPECT_EQ(escaped, 301u - 254u);  // locals 254..300 of UG 1

  // A prefix of the options, an empty list, and the argument checks.
  std::vector<std::uint32_t> out(opts.size());
  model.LocalIndices(1, std::span{opts}.first(10), out);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(out[k], model.LocalIndex(1, opts[k].peering));
  }
  model.LocalIndices(1, {}, {});
  EXPECT_THROW(model.LocalIndices(3, opts, out), std::out_of_range);
  EXPECT_THROW(model.LocalIndices(1, opts, std::span{out}.first(5)),
               std::invalid_argument);
}

TEST(BuildInstance, MeasuredInstanceConsistentWithWorld) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  EXPECT_EQ(inst.UgCount(), w.deployment->ugs().size());
  EXPECT_EQ(inst.peering_count, w.deployment->peerings().size());
  EXPECT_GT(inst.total_weight, 0.0);
  // Options are exactly the compliant sets.
  for (const auto& ug : w.deployment->ugs()) {
    EXPECT_EQ(inst.options[ug.id.value()].size(),
              w.catalog->CompliantPeerings(ug.id).size());
  }
  // Measured RTTs are bounded below by the oracle's truth.
  for (const auto& opt : inst.options[0]) {
    EXPECT_GE(opt.rtt_ms,
              w.oracle->TrueRtt(util::UgId{0}, opt.peering).count());
  }
}

// Both views of the flat index list every (UG, option) entry once: the
// peering-major one by ascending UG, the UG-major one in option order.
TEST(BuildInstance, InvertedIndexMatchesOptions) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  const FlatPeeringIndex flat{inst};
  ASSERT_EQ(flat.offset.size(), inst.peering_count + 1);
  ASSERT_EQ(flat.ug_first.size(), inst.UgCount() + 1);
  for (std::uint32_t g = 0; g < inst.peering_count; ++g) {
    for (std::size_t i = flat.offset[g]; i < flat.offset[g + 1]; ++i) {
      EXPECT_EQ(flat.option[i], inst.Option(flat.ug[i], util::PeeringId{g}));
      if (i > flat.offset[g]) {
        EXPECT_LT(flat.ug[i - 1], flat.ug[i]);
      }
    }
  }
  std::size_t entries = 0;
  for (std::uint32_t u = 0; u < inst.UgCount(); ++u) {
    ASSERT_EQ(flat.ug_first[u + 1] - flat.ug_first[u], inst.options[u].size());
    for (std::size_t k = 0; k < inst.options[u].size(); ++k) {
      const std::uint32_t e = flat.entry[flat.ug_first[u] + k];
      EXPECT_EQ(flat.ug[e], u);
      EXPECT_EQ(flat.option[e], &inst.options[u][k]);
    }
    entries += inst.options[u].size();
  }
  EXPECT_EQ(flat.EntryCount(), entries);
}

TEST(BuildInstance, EstimatedInstanceCoversSubset) {
  const test::World& w = test::SharedWorld();
  const measure::GeoTargetCatalog targets{*w.oracle, {}};
  util::Rng rng{77};
  const auto est = core::BuildEstimatedInstance(
      w.internet(), *w.deployment, *w.catalog, *w.resolver, *w.oracle, targets,
      rng, 450.0);
  const auto full = test::MakeInstance(w);
  for (std::uint32_t u = 0; u < est.UgCount(); ++u) {
    EXPECT_LE(est.options[u].size(), full.options[u].size());
  }
}

}  // namespace
}  // namespace painter::core
