#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "tests/pin_hash.h"
#include "topo/as_graph.h"
#include "topo/generator.h"
#include "topo/geo.h"

namespace painter::topo {
namespace {

TEST(Geo, DistanceZeroForSamePoint) {
  GeoPoint p{40.0, -74.0};
  EXPECT_NEAR(Distance(p, p).count(), 0.0, 1e-9);
}

TEST(Geo, DistanceSymmetric) {
  GeoPoint a{40.71, -74.01};  // New York
  GeoPoint b{51.51, -0.13};   // London
  EXPECT_NEAR(Distance(a, b).count(), Distance(b, a).count(), 1e-9);
}

TEST(Geo, KnownDistanceNewYorkLondon) {
  GeoPoint ny{40.71, -74.01};
  GeoPoint ldn{51.51, -0.13};
  // Great-circle NYC-London is ~5570 km.
  EXPECT_NEAR(Distance(ny, ldn).count(), 5570.0, 60.0);
}

TEST(Geo, AntipodalIsHalfCircumference) {
  GeoPoint a{0.0, 0.0};
  GeoPoint b{0.0, 180.0};
  EXPECT_NEAR(Distance(a, b).count(), 20015.0, 20.0);
}

TEST(Geo, MinLatencyUsesFiberSpeed) {
  GeoPoint a{0.0, 0.0};
  GeoPoint b{0.0, 1.0};  // ~111 km on the equator
  EXPECT_NEAR(MinLatency(a, b).count(), 111.2 / 200.0, 0.01);
}

TEST(Geo, WorldMetrosHaveUniqueIdsAndPositiveWeights) {
  const auto metros = WorldMetros();
  EXPECT_GE(metros.size(), 40u);
  for (std::size_t i = 0; i < metros.size(); ++i) {
    EXPECT_EQ(metros[i].id.value(), i);
    EXPECT_GT(metros[i].population_weight, 0.0);
  }
}

class AsGraphTest : public ::testing::Test {
 protected:
  util::AsId Add(AsTier tier) {
    return g_.AddAs(tier, "as", {util::MetroId{0}});
  }
  AsGraph g_;
};

TEST_F(AsGraphTest, AddAsAssignsSequentialIds) {
  EXPECT_EQ(Add(AsTier::kStub).value(), 0u);
  EXPECT_EQ(Add(AsTier::kStub).value(), 1u);
  EXPECT_EQ(g_.size(), 2u);
}

TEST_F(AsGraphTest, EmptyPresenceRejected) {
  EXPECT_THROW(g_.AddAs(AsTier::kStub, "bad", {}), std::invalid_argument);
}

TEST_F(AsGraphTest, ProviderEdgeVisibleBothSides) {
  const auto p = Add(AsTier::kTransit);
  const auto c = Add(AsTier::kStub);
  g_.AddProviderEdge(p, c);
  ASSERT_EQ(g_.customers(p).size(), 1u);
  EXPECT_EQ(g_.customers(p)[0], c);
  ASSERT_EQ(g_.providers(c).size(), 1u);
  EXPECT_EQ(g_.providers(c)[0], p);
}

TEST_F(AsGraphTest, SelfEdgesRejected) {
  const auto a = Add(AsTier::kStub);
  EXPECT_THROW(g_.AddProviderEdge(a, a), std::invalid_argument);
  EXPECT_THROW(g_.AddPeerEdge(a, a), std::invalid_argument);
}

TEST_F(AsGraphTest, UnknownIdThrows) {
  EXPECT_THROW((void)g_.info(util::AsId{5}), std::out_of_range);
  EXPECT_THROW((void)g_.providers(util::AsId{}), std::out_of_range);
}

TEST_F(AsGraphTest, PeerEdgeSymmetric) {
  const auto a = Add(AsTier::kTransit);
  const auto b = Add(AsTier::kTransit);
  g_.AddPeerEdge(a, b);
  ASSERT_EQ(g_.peers(a).size(), 1u);
  ASSERT_EQ(g_.peers(b).size(), 1u);
  EXPECT_EQ(g_.peers(a)[0], b);
  EXPECT_EQ(g_.peers(b)[0], a);
}

TEST_F(AsGraphTest, CustomerConeTransitive) {
  // t1 -> tr -> stub ; cone(t1) = {t1, tr, stub}.
  const auto t1 = Add(AsTier::kTier1);
  const auto tr = Add(AsTier::kTransit);
  const auto st = Add(AsTier::kStub);
  g_.AddProviderEdge(t1, tr);
  g_.AddProviderEdge(tr, st);
  EXPECT_TRUE(g_.InCustomerCone(st, t1));
  EXPECT_TRUE(g_.InCustomerCone(tr, t1));
  EXPECT_TRUE(g_.InCustomerCone(t1, t1));
  EXPECT_FALSE(g_.InCustomerCone(t1, st));
  EXPECT_EQ(g_.CustomerCone(t1).size(), 3u);
}

TEST_F(AsGraphTest, PeersNotInCone) {
  const auto a = Add(AsTier::kTransit);
  const auto b = Add(AsTier::kTransit);
  g_.AddPeerEdge(a, b);
  EXPECT_FALSE(g_.InCustomerCone(b, a));
}

TEST_F(AsGraphTest, ConeCacheInvalidatedOnMutation) {
  const auto a = Add(AsTier::kTransit);
  const auto b = Add(AsTier::kStub);
  EXPECT_FALSE(g_.InCustomerCone(b, a));
  g_.AddProviderEdge(a, b);
  EXPECT_TRUE(g_.InCustomerCone(b, a));
  // An AS added after the cache was sized gets a cone of its own.
  const auto c = Add(AsTier::kStub);
  g_.AddProviderEdge(b, c);
  EXPECT_TRUE(g_.InCustomerCone(c, a));
  EXPECT_EQ(g_.CustomerCone(c).size(), 1u);
}

TEST_F(AsGraphTest, AsesOfTierFilters) {
  Add(AsTier::kTier1);
  Add(AsTier::kStub);
  Add(AsTier::kStub);
  EXPECT_EQ(g_.AsesOfTier(AsTier::kTier1).size(), 1u);
  EXPECT_EQ(g_.AsesOfTier(AsTier::kStub).size(), 2u);
  EXPECT_TRUE(g_.AsesOfTier(AsTier::kCloud).empty());
}

class GeneratorTest : public ::testing::Test {
 protected:
  static InternetConfig SmallConfig() {
    InternetConfig cfg;
    cfg.seed = 5;
    cfg.tier1_count = 4;
    cfg.transit_count = 10;
    cfg.regional_count = 20;
    cfg.stub_count = 100;
    return cfg;
  }
};

TEST_F(GeneratorTest, GeneratesRequestedCounts) {
  const auto net = GenerateInternet(SmallConfig());
  EXPECT_EQ(net.graph.AsesOfTier(AsTier::kTier1).size(), 4u);
  EXPECT_EQ(net.graph.AsesOfTier(AsTier::kTransit).size(), 10u);
  EXPECT_EQ(net.graph.AsesOfTier(AsTier::kRegional).size(), 20u);
  EXPECT_EQ(net.graph.AsesOfTier(AsTier::kStub).size(), 100u);
}

TEST_F(GeneratorTest, Tier1FullMesh) {
  const auto net = GenerateInternet(SmallConfig());
  for (auto t1 : net.graph.AsesOfTier(AsTier::kTier1)) {
    EXPECT_GE(net.graph.peers(t1).size(), 3u);  // the other tier-1s at least
    EXPECT_TRUE(net.graph.providers(t1).empty());  // transit-free
  }
}

TEST_F(GeneratorTest, EveryStubHasAProvider) {
  const auto net = GenerateInternet(SmallConfig());
  for (auto s : net.graph.AsesOfTier(AsTier::kStub)) {
    EXPECT_FALSE(net.graph.providers(s).empty());
  }
}

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  const auto a = GenerateInternet(SmallConfig());
  const auto b = GenerateInternet(SmallConfig());
  ASSERT_EQ(a.graph.size(), b.graph.size());
  for (std::uint32_t v = 0; v < a.graph.size(); ++v) {
    const util::AsId id{v};
    EXPECT_EQ(a.graph.providers(id), b.graph.providers(id));
    EXPECT_EQ(a.graph.peers(id), b.graph.peers(id));
  }
}

TEST_F(GeneratorTest, DifferentSeedsDiffer) {
  auto cfg = SmallConfig();
  const auto a = GenerateInternet(cfg);
  cfg.seed = 6;
  const auto b = GenerateInternet(cfg);
  bool any_diff = false;
  for (std::uint32_t v = 0; v < std::min(a.graph.size(), b.graph.size()); ++v) {
    if (a.graph.providers(util::AsId{v}) != b.graph.providers(util::AsId{v})) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(GeneratorTest, StubsReachableFromSomeTier1) {
  // Every stub should be inside at least one tier-1 customer cone — the
  // hierarchy is connected upward.
  const auto net = GenerateInternet(SmallConfig());
  const auto tier1s = net.graph.AsesOfTier(AsTier::kTier1);
  for (auto s : net.graph.AsesOfTier(AsTier::kStub)) {
    const bool covered =
        std::any_of(tier1s.begin(), tier1s.end(), [&](util::AsId t) {
          return net.graph.InCustomerCone(s, t);
        });
    EXPECT_TRUE(covered) << "stub " << s << " not in any tier-1 cone";
  }
}

TEST_F(GeneratorTest, MultihomingDistributionRoughlyMatches) {
  auto cfg = SmallConfig();
  cfg.stub_count = 1000;
  const auto net = GenerateInternet(cfg);
  std::size_t multihomed = 0;
  for (auto s : net.graph.AsesOfTier(AsTier::kStub)) {
    if (net.graph.providers(s).size() >= 2) ++multihomed;
  }
  // Config: 55% of stubs want >=2 providers; allow slack for provider-pool
  // exhaustion in tiny metros.
  EXPECT_GT(multihomed, 350u);
  EXPECT_LT(multihomed, 750u);
}

// Every metro-to-metro distance reads the generated table, so each entry must
// be the haversine itself, bit for bit, over every ordered pair.
TEST_F(GeneratorTest, MetroTableEntryIsDistanceBitForBit) {
  const Internet net = GenerateInternet(SmallConfig());
  ASSERT_EQ(net.metro_km.size(), net.metros.size() * net.metros.size());
  for (const Metro& a : net.metros) {
    for (const Metro& b : net.metros) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(net.MetroKm(a.id, b.id).count()),
                std::bit_cast<std::uint64_t>(
                    Distance(a.location, b.location).count()))
          << a.name << " -> " << b.name;
    }
  }
}

// Exact-output pin of the generated graph: FNV-1a over every AS's providers,
// customers, peers, presence, exit policy and exit bias, in id order. Every
// golden is downstream of this graph, so a generator change that moves one
// edge fails here first.
std::uint64_t HashInternet(const Internet& net) {
  test::Fnv1a h;
  const auto add_ids = [&](const auto& ids) {
    h.Add(std::uint64_t{ids.size()});
    for (const auto id : ids) h.Add(std::uint64_t{id.value()});
  };
  for (std::uint32_t v = 0; v < net.graph.size(); ++v) {
    const util::AsId id{v};
    const AsInfo& info = net.graph.info(id);
    add_ids(net.graph.providers(id));
    add_ids(net.graph.customers(id));
    add_ids(net.graph.peers(id));
    add_ids(info.presence);
    h.Add(std::uint64_t{static_cast<std::uint8_t>(info.exit_policy)});
    h.Add(std::uint64_t{info.exit_bias.value()});
  }
  return h.value();
}

TEST(TopologyPinTest, DefaultConfig) {
  EXPECT_EQ(HashInternet(GenerateInternet(InternetConfig{})),
            0xb7769ed55396b911ULL);
}

TEST(TopologyPinTest, AzurePlanShape) {
  InternetConfig cfg;
  cfg.seed = 101;
  cfg.tier1_count = 8;
  cfg.transit_count = 40;
  cfg.regional_count = 120;
  cfg.stub_count = 1200;
  EXPECT_EQ(HashInternet(GenerateInternet(cfg)), 0x749bab6ab91a021cULL);
}

}  // namespace
}  // namespace painter::topo
