// Property-based checks of the BGP engine over generated internetworks:
// every forwarding path must be valley-free, outcomes deterministic, and
// announcement semantics (transit reaches all, subsets pin entries) must
// hold for every seed. The advertisement-attribute properties (prepending
// monotonicity, no-export scoping, withdraw ≡ prepend-∞, rerun
// byte-identity of attributed configs) live here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "bgpsim/engine.h"
#include "cloudsim/deployment.h"
#include "core/config_io.h"
#include "core/orchestrator.h"
#include "tests/world_fixture.h"

namespace painter::bgpsim {
namespace {

enum class Hop { kUp, kPeer, kDown, kNone };

Hop Classify(const topo::AsGraph& g, util::AsId from, util::AsId to) {
  const auto& provs = g.providers(from);
  if (std::find(provs.begin(), provs.end(), to) != provs.end()) {
    return Hop::kUp;
  }
  const auto& peers = g.peers(from);
  if (std::find(peers.begin(), peers.end(), to) != peers.end()) {
    return Hop::kPeer;
  }
  const auto& custs = g.customers(from);
  if (std::find(custs.begin(), custs.end(), to) != custs.end()) {
    return Hop::kDown;
  }
  return Hop::kNone;
}

// Valley-free: the forwarding path from a UG to the origin must look like
// up* (peer)? down* — once it turns downward or crosses a peer link it may
// never climb again, and at most one peer link appears.
bool ValleyFree(const topo::AsGraph& g, util::AsId start,
                const std::vector<util::AsId>& path) {
  util::AsId prev = start;
  int phase = 0;  // 0 = climbing, 1 = crossed peer, 2 = descending
  for (util::AsId next : path) {
    const Hop hop = Classify(g, prev, next);
    switch (hop) {
      case Hop::kNone:
        return false;  // non-adjacent hop
      case Hop::kUp:
        if (phase != 0) return false;
        break;
      case Hop::kPeer:
        if (phase != 0) return false;
        phase = 1;
        break;
      case Hop::kDown:
        phase = 2;
        break;
    }
    prev = next;
  }
  return true;
}

class BgpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BgpPropertyTest, AnycastPathsAreValleyFree) {
  const test::World& w = test::SharedWorld(GetParam(), 120, 8);
  std::vector<util::PeeringId> all;
  for (const auto& p : w.deployment->peerings()) all.push_back(p.id);
  const auto result = w.resolver->ResolveWithRoutes(all);
  for (const auto& ug : w.deployment->ugs()) {
    if (!result.outcome.Reachable(ug.as)) continue;
    const auto path = result.outcome.Path(ug.as);
    EXPECT_TRUE(ValleyFree(w.internet().graph, ug.as, path))
        << "seed " << GetParam() << " UG " << ug.id;
  }
}

TEST_P(BgpPropertyTest, SubsetAnnouncementPathsAreValleyFree) {
  const test::World& w = test::SharedWorld(GetParam(), 120, 8);
  util::Rng rng{GetParam() + 5};
  std::vector<util::PeeringId> subset;
  for (const auto& p : w.deployment->peerings()) {
    if (rng.Bernoulli(0.2)) subset.push_back(p.id);
  }
  if (subset.empty()) return;
  const auto result = w.resolver->ResolveWithRoutes(subset);
  for (const auto& ug : w.deployment->ugs()) {
    if (!result.outcome.Reachable(ug.as)) continue;
    EXPECT_TRUE(ValleyFree(w.internet().graph, ug.as,
                           result.outcome.Path(ug.as)));
  }
}

TEST_P(BgpPropertyTest, PropagationIsDeterministic) {
  const test::World& w = test::SharedWorld(GetParam(), 80, 6);
  std::vector<util::PeeringId> all;
  for (const auto& p : w.deployment->peerings()) all.push_back(p.id);
  const auto a = w.resolver->Resolve(all);
  const auto b = w.resolver->Resolve(all);
  EXPECT_EQ(a, b);
}

TEST_P(BgpPropertyTest, SupersetNeverLosesReachability) {
  // Announcing via more sessions can only keep or gain reachability.
  const test::World& w = test::SharedWorld(GetParam(), 100, 6);
  util::Rng rng{GetParam() + 9};
  std::vector<util::PeeringId> small;
  std::vector<util::PeeringId> big;
  for (const auto& p : w.deployment->peerings()) {
    const bool in_small = rng.Bernoulli(0.15);
    if (in_small) small.push_back(p.id);
    if (in_small || rng.Bernoulli(0.3)) big.push_back(p.id);
  }
  if (small.empty()) return;
  const auto s = w.resolver->Resolve(small);
  const auto b = w.resolver->Resolve(big);
  for (std::size_t u = 0; u < s.size(); ++u) {
    if (s[u].has_value()) {
      EXPECT_TRUE(b[u].has_value()) << "seed " << GetParam() << " ug " << u;
    }
  }
}

TEST_P(BgpPropertyTest, EntryAsAlwaysDirectlyAnnounced) {
  const test::World& w = test::SharedWorld(GetParam(), 100, 6);
  util::Rng rng{GetParam() + 13};
  std::vector<util::PeeringId> subset;
  std::set<std::uint32_t> announced_as;
  for (const auto& p : w.deployment->peerings()) {
    if (rng.Bernoulli(0.25)) {
      subset.push_back(p.id);
      announced_as.insert(p.peer.value());
    }
  }
  if (subset.empty()) return;
  const auto result = w.resolver->ResolveWithRoutes(subset);
  for (const auto& ug : w.deployment->ugs()) {
    if (!result.outcome.Reachable(ug.as)) continue;
    const auto entry = result.outcome.EntryAs(ug.as);
    ASSERT_TRUE(entry.has_value());
    EXPECT_TRUE(announced_as.contains(entry->value()));
  }
}

TEST_P(BgpPropertyTest, PathLengthMatchesRouteMetadata) {
  const test::World& w = test::SharedWorld(GetParam(), 80, 6);
  std::vector<util::PeeringId> all;
  for (const auto& p : w.deployment->peerings()) all.push_back(p.id);
  const auto result = w.resolver->ResolveWithRoutes(all);
  for (const auto& ug : w.deployment->ugs()) {
    if (!result.outcome.Reachable(ug.as)) continue;
    const auto& route = result.outcome.RouteAt(ug.as);
    EXPECT_EQ(result.outcome.Path(ug.as).size(), route.path_length);
  }
}

// --- Advertisement-attribute properties (PR 9 action space) ---

// UG ids attracted via `target`'s sessions when every session of that peer
// AS is announced at `prepend` (kPrependInfinity = withdrawn).
std::set<std::size_t> AttractedVia(const test::World& w, util::AsId target,
                                   std::uint8_t prepend) {
  const auto& peerings = w.deployment->peerings();
  std::vector<util::PeeringId> all;
  std::vector<NeighborAttr> attrs;
  for (const auto& p : peerings) {
    all.push_back(p.id);
    NeighborAttr a;
    if (p.peer == target) a.prepend = prepend;
    attrs.push_back(a);
  }
  std::vector<util::AsId> peer_of(peerings.size());
  for (const auto& p : peerings) peer_of[p.id.value()] = p.peer;
  const auto ingress = w.resolver->Resolve(all, attrs);
  std::set<std::size_t> ugs;
  for (std::size_t u = 0; u < ingress.size(); ++u) {
    if (ingress[u].has_value() && peer_of[ingress[u]->value()] == target) {
      ugs.insert(u);
    }
  }
  return ugs;
}

TEST_P(BgpPropertyTest, PrependingMonotonicityNeverAttractsMore) {
  // Lengthening an AS's announcement only makes its routes less preferred
  // everywhere while every alternative is untouched, so the attracted UG set
  // can only shrink: attracted(k+1) ⊆ attracted(k), and prepend-∞ attracts
  // nobody.
  const test::World& w = test::SharedWorld(GetParam(), 100, 6);
  const auto& peerings = w.deployment->peerings();
  const util::AsId target = peerings[GetParam() % peerings.size()].peer;
  std::set<std::size_t> prev = AttractedVia(w, target, 0);
  for (std::uint8_t k = 1; k <= kMaxPrepend; ++k) {
    const std::set<std::size_t> cur = AttractedVia(w, target, k);
    for (const std::size_t u : cur) {
      EXPECT_TRUE(prev.contains(u))
          << "seed " << GetParam() << ": UG " << u << " attracted at prepend "
          << int{k} << " but not at " << int{k - 1};
    }
    prev = std::move(cur);
  }
  EXPECT_TRUE(AttractedVia(w, target, kPrependInfinity).empty());
}

TEST_P(BgpPropertyTest, NoExportUpConfinesToPeerCone) {
  // kNoExportUp on every session: each reachable UG must sit inside its
  // entry AS's customer cone (or be the entry AS itself) — the community
  // stops the route from climbing past the peer, even for transit entries.
  const test::World& w = test::SharedWorld(GetParam(), 100, 6);
  std::vector<util::PeeringId> all;
  for (const auto& p : w.deployment->peerings()) all.push_back(p.id);
  const std::vector<NeighborAttr> attrs(
      all.size(), NeighborAttr{0, Community::kNoExportUp});
  const auto result = w.resolver->ResolveWithRoutes(all, attrs);
  std::size_t reachable = 0;
  for (const auto& ug : w.deployment->ugs()) {
    if (!result.outcome.Reachable(ug.as)) continue;
    ++reachable;
    const auto entry = result.outcome.EntryAs(ug.as);
    ASSERT_TRUE(entry.has_value());
    EXPECT_TRUE(ug.as == *entry ||
                w.internet().graph.InCustomerCone(ug.as, *entry))
        << "seed " << GetParam() << " UG " << ug.id
        << " entered via AS outside whose cone it sits";
  }
  EXPECT_GT(reachable, 0u) << "no-export world vacuously unreachable";
}

TEST_P(BgpPropertyTest, WithdrawEqualsPrependInfinity) {
  // Announcing a session at kPrependInfinity must be indistinguishable from
  // omitting it — across the whole routing outcome, not just reachability.
  const test::World& w = test::SharedWorld(GetParam(), 100, 6);
  util::Rng rng{GetParam() + 21};
  std::vector<util::PeeringId> all;
  std::vector<util::PeeringId> kept;
  std::vector<NeighborAttr> attrs;
  for (const auto& p : w.deployment->peerings()) {
    all.push_back(p.id);
    NeighborAttr a;
    if (rng.Bernoulli(0.4)) {
      kept.push_back(p.id);
    } else {
      a.prepend = kPrependInfinity;
    }
    attrs.push_back(a);
  }
  if (kept.empty()) return;
  const auto inf = w.resolver->ResolveWithRoutes(all, attrs);
  const auto omitted = w.resolver->ResolveWithRoutes(kept);
  EXPECT_EQ(inf.ingress_of_ug, omitted.ingress_of_ug);
  for (const auto& ug : w.deployment->ugs()) {
    ASSERT_EQ(inf.outcome.Reachable(ug.as), omitted.outcome.Reachable(ug.as));
    if (inf.outcome.Reachable(ug.as)) {
      EXPECT_EQ(inf.outcome.Path(ug.as), omitted.outcome.Path(ug.as));
    }
  }
}

TEST_P(BgpPropertyTest, PrependedPathLengthMatchesWireMetadata) {
  // With every session announced at prepend k, each route's effective length
  // must exceed its real AS-path by exactly k (the seed carries 1 + k and
  // every hop adds one, exactly like the repeated-origin wire encoding).
  const test::World& w = test::SharedWorld(GetParam(), 80, 6);
  std::vector<util::PeeringId> all;
  for (const auto& p : w.deployment->peerings()) all.push_back(p.id);
  for (const std::uint8_t k : {std::uint8_t{1}, kMaxPrepend}) {
    const std::vector<NeighborAttr> attrs(all.size(), NeighborAttr{k});
    const auto result = w.resolver->ResolveWithRoutes(all, attrs);
    for (const auto& ug : w.deployment->ugs()) {
      if (!result.outcome.Reachable(ug.as)) continue;
      const auto& route = result.outcome.RouteAt(ug.as);
      EXPECT_EQ(route.path_length, result.outcome.Path(ug.as).size() + k);
    }
  }
}

TEST_P(BgpPropertyTest, WideActionSpaceConfigByteIdenticalAcrossReruns) {
  // The widened CELF loop must be deterministic, like every other engine
  // path: the serialized v2 config (the export a real controller would
  // install) is compared byte for byte across two fresh orchestrators.
  const test::World& w = test::SharedWorld(GetParam(), 100, 6);
  const auto inst = test::MakeInstance(w, GetParam() + 300);
  core::OrchestratorConfig cfg;
  cfg.prefix_budget = 4;
  cfg.action_space = core::ActionSpaceConfig{.max_prepend = 2,
                                             .enable_lower_pref = true,
                                             .enable_no_export = true};
  const auto run = [&] {
    const core::Orchestrator orch{inst, cfg};
    return core::ConfigToString(orch.ComputeConfig());
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(run(), first) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpPropertyTest,
                         ::testing::Values(1, 7, 42, 99, 1234, 555, 2023,
                                           31337));

}  // namespace
}  // namespace painter::bgpsim
