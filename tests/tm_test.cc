#include <gtest/gtest.h>

#include "core/baselines.h"
#include "tests/world_fixture.h"
#include "util/stats.h"
#include "tm/control.h"
#include "faultsim/failover_scenario.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"

namespace painter::tm {
namespace {

TEST(TmPopTest, AnswersProbesWithoutNat) {
  netsim::Simulator sim;
  TmPop pop{sim, "P", {1}};
  bool replied = false;
  netsim::Packet probe;
  probe.kind = netsim::PacketKind::kProbe;
  probe.probe_id = 7;
  pop.HandleArrival(probe, [&](netsim::Packet reply) {
    EXPECT_EQ(reply.kind, netsim::PacketKind::kProbeReply);
    EXPECT_EQ(reply.probe_id, 7u);
    replied = true;
  });
  sim.Run(1.0);
  EXPECT_TRUE(replied);
  EXPECT_EQ(pop.nat().ActiveBindings(), 0u);
  EXPECT_EQ(pop.stats().probe_packets, 1u);
}

TEST(TmPopTest, DataPacketNatsAndResponds) {
  netsim::Simulator sim;
  TmPop pop{sim, "P", {1}};
  netsim::Packet data;
  data.kind = netsim::PacketKind::kData;
  data.inner = netsim::FlowKey{.src_ip = 10, .dst_ip = 99, .src_port = 1234,
                               .dst_port = 443};
  data.payload_bytes = 100;
  std::optional<netsim::Packet> response;
  pop.HandleArrival(data, [&](netsim::Packet r) { response = r; });
  sim.Run(1.0);
  ASSERT_TRUE(response.has_value());
  // Response is addressed back to the client, swapped 5-tuple.
  EXPECT_EQ(response->inner.src_ip, 99u);
  EXPECT_EQ(response->inner.dst_ip, 10u);
  EXPECT_EQ(response->inner.dst_port, 1234);
  EXPECT_EQ(pop.nat().ActiveBindings(), 1u);
  EXPECT_EQ(pop.stats().responses_sent, 1u);
}

class EdgeFixture {
 public:
  explicit EdgeFixture(std::vector<double> delays,
                       TmEdge::Config cfg = DefaultCfg()) {
    pops_.reserve(delays.size());
    std::vector<TunnelConfig> tunnels;
    for (std::size_t i = 0; i < delays.size(); ++i) {
      pops_.push_back(std::make_unique<TmPop>(
          sim_, "P" + std::to_string(i),
          std::vector<netsim::IpAddr>{static_cast<netsim::IpAddr>(100 + i)}));
      tunnels.push_back(TunnelConfig{
          .name = "t" + std::to_string(i),
          .remote_ip = static_cast<netsim::IpAddr>(100 + i),
          .path = netsim::PathModel::Fixed(delays[i]),
          .pop = pops_.back().get()});
    }
    edge_ = std::make_unique<TmEdge>(sim_, cfg, std::move(tunnels));
  }

  static TmEdge::Config DefaultCfg() {
    TmEdge::Config cfg;
    cfg.delay_jitter = 0.0;  // deterministic unless a test wants jitter
    return cfg;
  }

  netsim::Simulator sim_;
  std::vector<std::unique_ptr<TmPop>> pops_;
  std::unique_ptr<TmEdge> edge_;
};

TEST(TmEdgeTest, SelectsLowestRttTunnel) {
  EdgeFixture f{{0.030, 0.010, 0.020}};
  f.edge_->Start();
  f.sim_.Run(1.0);
  EXPECT_EQ(f.edge_->chosen(), 1);
}

TEST(TmEdgeTest, RttEstimatesMatchPathDelay) {
  EdgeFixture f{{0.015}};
  f.edge_->Start();
  f.sim_.Run(1.0);
  const auto rtt = f.edge_->TunnelRttMs(0);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_NEAR(*rtt, 30.0, 2.0);
}

TEST(TmEdgeTest, HysteresisPreventsSmallSwitches) {
  // Nearly equal tunnels: after the initial selection, no oscillation.
  EdgeFixture f{{0.0100, 0.0101}};
  f.edge_->Start();
  f.sim_.Run(5.0);
  EXPECT_LE(f.edge_->failovers().size(), 1u);
}

TEST(TmEdgeTest, FailoverOnPathDeath) {
  netsim::Simulator sim;
  TmPop pop_a{sim, "A", {1}};
  TmPop pop_b{sim, "B", {2}};
  std::vector<TunnelConfig> tunnels;
  tunnels.push_back(TunnelConfig{.name = "dies",
                                 .remote_ip = 1,
                                 .path = netsim::PathModel::UpThenDown(0.010,
                                                                       2.0),
                                 .pop = &pop_a});
  tunnels.push_back(TunnelConfig{.name = "lives",
                                 .remote_ip = 2,
                                 .path = netsim::PathModel::Fixed(0.020),
                                 .pop = &pop_b});
  auto cfg = EdgeFixture::DefaultCfg();
  TmEdge edge{sim, cfg, std::move(tunnels)};
  edge.Start();
  sim.Run(10.0);
  EXPECT_EQ(edge.chosen(), 1);
  // Detection within a few probe intervals + 1.3 RTT of the failure at t=2.
  bool switched = false;
  for (const auto& ev : edge.failovers()) {
    if (ev.t >= 2.0 && ev.from == 0 && ev.to == 1) {
      switched = true;
      EXPECT_LT(ev.t - 2.0, 0.2);
    }
  }
  EXPECT_TRUE(switched);
}

TEST(TmEdgeTest, FlowPinningImmutable) {
  netsim::Simulator sim;
  TmPop pop_a{sim, "A", {1}};
  TmPop pop_b{sim, "B", {2}};
  std::vector<TunnelConfig> tunnels;
  tunnels.push_back(TunnelConfig{.name = "best-then-dead",
                                 .remote_ip = 1,
                                 .path = netsim::PathModel::UpThenDown(0.010,
                                                                       2.0),
                                 .pop = &pop_a});
  tunnels.push_back(TunnelConfig{.name = "backup",
                                 .remote_ip = 2,
                                 .path = netsim::PathModel::Fixed(0.020),
                                 .pop = &pop_b});
  TmEdge edge{sim, EdgeFixture::DefaultCfg(), std::move(tunnels)};
  edge.Start();
  const netsim::FlowKey flow{.src_ip = 1, .dst_ip = 2, .src_port = 10,
                             .dst_port = 443};
  sim.Schedule(1.0, [&] { edge.StartFlow(flow, 100, 0.05); });
  sim.Run(10.0);
  // The flow was pinned to tunnel 0 at t=1 and stays there even after the
  // failure at t=2 (immutable mapping, §3.2): packets after the death are
  // lost, so delivered < sent, and the recorded tunnel is still 0.
  const auto& stats = edge.flows().at(flow);
  EXPECT_EQ(stats.tunnel, 0);
  EXPECT_EQ(stats.sent, 100u);
  EXPECT_LT(stats.delivered, stats.sent);
  EXPECT_GT(stats.delivered, 0u);
}

TEST(TmEdgeTest, NewFlowsUseNewBest) {
  netsim::Simulator sim;
  TmPop pop_a{sim, "A", {1}};
  TmPop pop_b{sim, "B", {2}};
  std::vector<TunnelConfig> tunnels;
  tunnels.push_back(TunnelConfig{
      .name = "t0",
      .remote_ip = 1,
      .path = netsim::PathModel::UpThenDown(0.010, 2.0),
      .pop = &pop_a});
  tunnels.push_back(TunnelConfig{.name = "t1",
                                 .remote_ip = 2,
                                 .path = netsim::PathModel::Fixed(0.020),
                                 .pop = &pop_b});
  TmEdge edge{sim, EdgeFixture::DefaultCfg(), std::move(tunnels)};
  edge.Start();
  const netsim::FlowKey late{.src_ip = 1, .dst_ip = 2, .src_port = 11,
                             .dst_port = 443};
  sim.Schedule(5.0, [&] { edge.StartFlow(late, 10, 0.01); });
  sim.Run(10.0);
  const auto& stats = edge.flows().at(late);
  EXPECT_EQ(stats.tunnel, 1);
  EXPECT_EQ(stats.delivered, stats.sent);
}

// ProbeTunnel and SampleEvery reschedule themselves one interval ahead; an
// interval that rounds to 0 µs would keep Run() at one instant forever.
TEST(TmEdgeTest, ProbeIntervalRoundingToZeroThrows) {
  for (const double interval : {0.0, 1e-7, 4.9e-7, -0.01}) {
    TmEdge::Config cfg = EdgeFixture::DefaultCfg();
    cfg.probe_interval_s = interval;
    EXPECT_THROW(EdgeFixture({0.010}, cfg), std::invalid_argument)
        << "probe_interval_s " << interval;
  }
  TmEdge::Config cfg = EdgeFixture::DefaultCfg();
  cfg.probe_interval_s = 1e-6;  // the smallest interval on the µs grid
  EXPECT_NO_THROW(EdgeFixture({0.010}, cfg));
}

TEST(TmEdgeTest, SampleIntervalRoundingToZeroThrows) {
  EdgeFixture f{{0.010}};
  EXPECT_THROW(f.edge_->SampleEvery(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(f.edge_->SampleEvery(1e-7, 1.0), std::invalid_argument);
  EXPECT_TRUE(f.edge_->samples().empty());
  f.edge_->SampleEvery(0.25, 1.0);
  f.sim_.Run(2.0);
  EXPECT_EQ(f.edge_->samples().size(), 5u);  // t = 0, 0.25, ..., 1.0
}

// The probe round trip carries (tunnel, probe id) through the simulator and
// the TM-PoP answers it directly: every probe a PoP answers is a probe
// packet in its stats, and every answer the edge hears is a reply.
TEST(TmEdgeTest, ProbesAreCountedAtThePopAndAnswered) {
  EdgeFixture f{{0.010, 0.020}};
  f.edge_->Start();
  f.sim_.Run(1.0);
  // 10 ms probes from t = 0 through t = 1.0 on each tunnel.
  EXPECT_EQ(f.pops_[0]->stats().probe_packets, 100u);
  EXPECT_EQ(f.pops_[1]->stats().probe_packets, 99u);
  EXPECT_EQ(f.pops_[0]->nat().ActiveBindings(), 0u);
  ASSERT_TRUE(f.edge_->TunnelRttMs(1).has_value());
  EXPECT_DOUBLE_EQ(*f.edge_->TunnelRttMs(1), 40.0);
}

TEST(FailoverScenario, MatchesFig10Shape) {
  FailoverScenarioConfig cfg;
  const auto result = RunFailoverScenario(cfg);

  // The TM-Edge initially chooses the PoP-A unicast prefix (tunnel 1).
  bool chose_unicast_before = false;
  for (const auto& s : result.samples) {
    if (s.t > 5.0 && s.t < 59.0 && s.chosen == 1) chose_unicast_before = true;
  }
  EXPECT_TRUE(chose_unicast_before);

  // Failover happened, quickly, to a PoP-B prefix (tunnel >= 2).
  ASSERT_GE(result.detection_delay_s, 0.0);
  EXPECT_LT(result.detection_delay_s, 0.25);  // paper: ~1 RTT + probe gap
  EXPECT_GE(result.failover_target, 2);

  // Both PoPs saw data traffic.
  EXPECT_GT(result.pop_a_data_packets, 0u);
  EXPECT_GT(result.pop_b_data_packets, 0u);
}

TEST(FailoverScenario, DetectionNearRttTimescale) {
  // Over several jittered runs, median detection should be within a few
  // probe intervals + ~1.3 RTT (paper: typical 1.3 RTT with continuous
  // probing; our probe interval adds up to 10 ms).
  std::vector<double> detections;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FailoverScenarioConfig cfg;
    cfg.run_for_s = 70.0;
    cfg.edge.seed = seed;
    cfg.edge.delay_jitter = 0.05;
    const auto r = RunFailoverScenario(cfg);
    ASSERT_GE(r.detection_delay_s, 0.0);
    detections.push_back(r.detection_delay_s);
  }
  const double median = util::Median(detections);
  const double rtt = 2.0 * 0.014;
  EXPECT_LT(median, 0.010 + 2.5 * rtt);
}

TEST(PrefixDirectoryTest, MapsPrefixesToPops) {
  const test::World& w = test::SharedWorld();
  PrefixDirectory dir{*w.deployment};
  const auto inst = test::MakeInstance(w);
  const auto cfg = core::OnePerPop(*w.deployment, inst, 3);
  dir.Install(cfg);
  EXPECT_EQ(dir.PrefixCount(), cfg.PrefixCount());
  for (std::size_t p = 0; p < cfg.PrefixCount(); ++p) {
    EXPECT_EQ(dir.PopsOfPrefix(p).size(), 1u);  // one PoP per prefix here
  }
}

TEST(PrefixDirectoryTest, ServiceRestrictionFilters) {
  const test::World& w = test::SharedWorld();
  PrefixDirectory dir{*w.deployment};
  const auto inst = test::MakeInstance(w);
  const auto cfg = core::OnePerPop(*w.deployment, inst, 3);
  dir.Install(cfg);

  const util::ServiceId svc{1};
  // Restrict to the PoP of prefix 0 only.
  dir.RestrictService(svc, dir.PopsOfPrefix(0));
  const auto dests = dir.DestinationsFor(svc);
  ASSERT_FALSE(dests.empty());
  for (const auto p : dests) {
    bool overlaps = false;
    for (const auto pop : dir.PopsOfPrefix(p)) {
      for (const auto want : dir.PopsOfPrefix(0)) {
        if (pop == want) overlaps = true;
      }
    }
    EXPECT_TRUE(overlaps);
  }

  // Unrestricted service sees every prefix.
  EXPECT_EQ(dir.DestinationsFor(util::ServiceId{2}).size(),
            cfg.PrefixCount());
}

}  // namespace
}  // namespace painter::tm
