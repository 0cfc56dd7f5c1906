// Unit tests for the workload layer: the sharded flow-pinning store, the
// trace generator's distributions, capacity accounting, destination
// policies, and an end-to-end engine smoke run against a small TM-Edge.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/sim.h"
#include "tests/world_fixture.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"
#include "workload/engine.h"
#include "workload/flow_store.h"
#include "workload/load.h"
#include "workload/sharded_engine.h"
#include "workload/trace.h"

namespace painter::workload {
namespace {

netsim::FlowKey Key(std::uint32_t i) {
  return netsim::FlowKey{.src_ip = 0x0a000000u + i,
                         .dst_ip = 0x08080808u,
                         .src_port = static_cast<netsim::Port>(i & 0xFFFF),
                         .dst_port = 443,
                         .proto = 6};
}

TEST(FlowStoreTest, UpsertFindEraseRoundtrip) {
  FlowStore<int> store;
  EXPECT_TRUE(store.empty());
  store.Upsert(Key(1)) = 10;
  store.Upsert(Key(2)) = 20;
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.Find(Key(1)), nullptr);
  EXPECT_EQ(*store.Find(Key(1)), 10);
  EXPECT_EQ(store.at(Key(2)), 20);
  EXPECT_EQ(store.Find(Key(3)), nullptr);
  EXPECT_THROW(store.at(Key(3)), std::out_of_range);

  // Upsert on an existing key returns the same entry, not a fresh one.
  store.Upsert(Key(1)) += 5;
  EXPECT_EQ(store.at(Key(1)), 15);
  EXPECT_EQ(store.size(), 2u);

  EXPECT_TRUE(store.Erase(Key(1)));
  EXPECT_FALSE(store.Erase(Key(1)));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find(Key(1)), nullptr);
}

TEST(FlowStoreTest, GrowsAndPreservesEntriesAcrossRehash) {
  FlowStoreConfig cfg;
  cfg.shard_bits = 2;
  cfg.min_shard_capacity = 8;
  FlowStore<std::uint32_t> store{cfg};
  constexpr std::uint32_t kN = 20'000;
  for (std::uint32_t i = 0; i < kN; ++i) store.Upsert(Key(i)) = i * 3u;
  EXPECT_EQ(store.size(), kN);
  EXPECT_GT(store.Rehashes(), 0u);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_NE(store.Find(Key(i)), nullptr) << i;
    EXPECT_EQ(*store.Find(Key(i)), i * 3u);
  }
}

TEST(FlowStoreTest, EraseIfSweepsInBatch) {
  FlowStore<std::uint32_t> store;
  for (std::uint32_t i = 0; i < 1000; ++i) store.Upsert(Key(i)) = i;
  const std::size_t removed = store.EraseIf(
      [](const netsim::FlowKey&, const std::uint32_t& v) { return v % 2 == 0; });
  EXPECT_EQ(removed, 500u);
  EXPECT_EQ(store.size(), 500u);
  EXPECT_EQ(store.Find(Key(0)), nullptr);
  ASSERT_NE(store.Find(Key(1)), nullptr);
}

TEST(FlowStoreTest, SortedItemsIsKeyOrderedAndComplete) {
  FlowStore<std::uint32_t> store;
  // Insert in descending order; the snapshot must come back ascending.
  for (std::uint32_t i = 300; i-- > 0;) store.Upsert(Key(i)) = i;
  const auto items = store.SortedItems();
  ASSERT_EQ(items.size(), 300u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].first, Key(static_cast<std::uint32_t>(i)));
    if (i > 0) EXPECT_LT(items[i - 1].first, items[i].first);
  }
}

TEST(FlowStoreTest, TombstoneHeavyShardCompactsWithoutGrowing) {
  FlowStoreConfig cfg;
  cfg.shard_bits = 0;  // one shard
  cfg.min_shard_capacity = 64;
  FlowStore<int> store{cfg};
  // Churn: insert/erase far more keys than capacity; live count stays tiny,
  // so rehashes must reclaim tombstones rather than growing without bound.
  for (std::uint32_t round = 0; round < 2000; ++round) {
    store.Upsert(Key(round)) = 1;
    store.Erase(Key(round));
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_LE(store.Capacity(), 256u);
}

TEST(TraceTest, FlowEventDefaultsToZeroAndOrdersByStartTime) {
  const FlowEvent zero{};
  EXPECT_EQ(zero.start_us, 0u);
  EXPECT_EQ(zero.ug, 0u);
  EXPECT_EQ(zero.seq, 0u);
  EXPECT_EQ(zero.bytes, 0u);
  const FlowEvent later{.start_us = 1};
  EXPECT_LT(zero, later);
  EXPECT_EQ(zero, FlowEvent{});
  // The canonical sort is lexicographic (start_us, ug, seq, bytes); ties must
  // fall through to the later members so (ug, seq) uniqueness keeps the order
  // total.
  const FlowEvent base{.start_us = 1, .ug = 2, .seq = 3, .bytes = 4};
  EXPECT_LT(later, base);                                        // ug decides
  EXPECT_LT(base, (FlowEvent{.start_us = 1, .ug = 2, .seq = 7}));  // seq
  EXPECT_LT(base,
            (FlowEvent{.start_us = 1, .ug = 2, .seq = 3, .bytes = 9}));
}

TEST(TraceTest, BoundedParetoStaysInBoundsAndIsMonotone) {
  const double lo = 2e3, hi = 5e8, alpha = 1.3;
  EXPECT_DOUBLE_EQ(BoundedPareto(0.0, lo, hi, alpha), lo);
  // The implementation clamps u at 1 - 1e-12, so the top quantile lands a
  // hair under hi rather than exactly on it.
  EXPECT_NEAR(BoundedPareto(1.0 - 1e-13, lo, hi, alpha), hi, hi * 1e-4);
  double prev = 0.0;
  for (double u = 0.0; u < 1.0; u += 0.05) {
    const double x = BoundedPareto(u, lo, hi, alpha);
    EXPECT_GE(x, lo);
    EXPECT_LE(x, hi * (1.0 + 1e-9));
    EXPECT_GE(x, prev);
    prev = x;
  }
}

TEST(TraceTest, DiurnalFactorPeaksAtPeakHourWithUnitMean) {
  const double depth = 0.6;
  EXPECT_NEAR(DiurnalFactor(14.0 * 3600.0, 14.0, depth), 1.0 + depth, 1e-12);
  EXPECT_NEAR(DiurnalFactor(2.0 * 3600.0, 14.0, depth), 1.0 - depth, 1e-12);
  // Mean over one day is 1 (the cosine integrates to zero).
  double sum = 0.0;
  const int steps = 24 * 60;
  for (int i = 0; i < steps; ++i) {
    sum += DiurnalFactor(i * 60.0, 9.5, depth);
  }
  EXPECT_NEAR(sum / steps, 1.0, 1e-9);
}

TEST(TraceTest, GenerateTraceIsSortedUniqueAndSized) {
  TraceConfig tc;
  tc.seed = 5;
  tc.duration_s = 600.0;
  tc.mean_flows_per_s = 40.0;
  const auto profiles = SyntheticUgProfiles(16, 5);
  const Trace trace = GenerateTrace(tc, profiles);
  // Poisson with mean 24000: a +/-20% band is > 10 sigma.
  EXPECT_GT(trace.events.size(), 19'000u);
  EXPECT_LT(trace.events.size(), 29'000u);
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_LE(trace.events[i - 1], trace.events[i]);
    EXPECT_NE(trace.events[i - 1], trace.events[i]);  // (ug, seq) unique
  }
  for (const FlowEvent& e : trace.events) {
    EXPECT_LT(e.start_us, trace.duration_us);
    EXPECT_GE(e.bytes, static_cast<std::uint64_t>(tc.size_min_bytes));
    EXPECT_LE(e.bytes, static_cast<std::uint64_t>(tc.size_max_bytes) + 1);
  }
}

TEST(TraceTest, SyntheticProfilesAreSeedDeterministic) {
  const auto a = SyntheticUgProfiles(64, 9);
  const auto b = SyntheticUgProfiles(64, 9);
  const auto c = SyntheticUgProfiles(64, 10);
  ASSERT_EQ(a.size(), 64u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].weight, b[i].weight);
    EXPECT_EQ(a[i].peak_hour, b[i].peak_hour);
    differs = differs || a[i].weight != c[i].weight;
    EXPECT_GT(a[i].weight, 0.0);
    EXPECT_GE(a[i].peak_hour, 0.0);
    EXPECT_LT(a[i].peak_hour, 24.0);
  }
  EXPECT_TRUE(differs);
}

TEST(TraceTest, ProfilesFromDeploymentFollowWeightsAndLongitude) {
  const test::World& w = test::SharedWorld();
  const auto profiles = UgProfilesFromDeployment(w.internet(), *w.deployment);
  ASSERT_EQ(profiles.size(), w.deployment->ugs().size());
  for (const UgProfile& p : profiles) {
    EXPECT_GT(p.weight, 0.0);
    EXPECT_GE(p.peak_hour, 0.0);
    EXPECT_LT(p.peak_hour, 24.0);
  }
}

TEST(LoadTrackerTest, AccountsAssignReleaseAndClamps) {
  LoadTracker load{{1000.0, 2000.0}};
  EXPECT_EQ(load.PopCount(), 2u);
  load.OnAssign(0, 500.0);
  load.OnAssign(1, 500.0);
  EXPECT_DOUBLE_EQ(load.Utilization(0), 0.5);
  EXPECT_DOUBLE_EQ(load.Utilization(1), 0.25);
  EXPECT_DOUBLE_EQ(load.MaxUtilization(), 0.5);
  load.OnRelease(0, 800.0);  // over-release clamps at zero
  EXPECT_DOUBLE_EQ(load.OfferedBps(0), 0.0);
  // Out-of-range pops are ignored / read as zero.
  load.OnAssign(7, 100.0);
  EXPECT_DOUBLE_EQ(load.Utilization(7), 0.0);
  EXPECT_DOUBLE_EQ(load.Utilization(-1), 0.0);
}

std::vector<TunnelView> Views() {
  return {
      TunnelView{.tunnel = 0, .pop = 0, .usable = true, .rtt_ms = 20.0},
      TunnelView{.tunnel = 1, .pop = 1, .usable = true, .rtt_ms = 10.0},
      TunnelView{.tunnel = 2, .pop = 1, .usable = false, .rtt_ms = 1.0},
      TunnelView{.tunnel = 3, .pop = 0, .usable = true, .rtt_ms = 10.0},
  };
}

TEST(PolicyTest, NamesAndThresholdIdentifyThePolicy) {
  // name() labels report keys; the strings are load-bearing for baselines.
  EXPECT_STREQ(LatencyOnlyPolicy{}.name(), "latency_only");
  const LoadAwarePolicy load_aware{0.7};
  EXPECT_STREQ(load_aware.name(), "load_aware");
  EXPECT_DOUBLE_EQ(load_aware.threshold(), 0.7);
}

TEST(PolicyTest, LatencyOnlyPicksLowestRttWithLowIndexTieBreak) {
  LoadTracker load{{1000.0, 1000.0}};
  const LatencyOnlyPolicy policy;
  // Tunnels 1 and 3 tie at 10 ms; the lower index wins. Tunnel 2 is faster
  // but down, so it must never be picked.
  EXPECT_EQ(policy.Pick(Views(), load), 1);
}

TEST(PolicyTest, LatencyOnlyReturnsMinusOneWhenNothingUsable) {
  LoadTracker load{{1000.0}};
  const LatencyOnlyPolicy policy;
  std::vector<TunnelView> views = Views();
  for (auto& v : views) v.usable = false;
  EXPECT_EQ(policy.Pick(views, load), -1);
}

TEST(PolicyTest, LoadAwareSkipsSaturatedPopAndFallsBack) {
  LoadTracker load{{1000.0, 1000.0}};
  const LoadAwarePolicy policy{0.85};
  // Pop 1 (tunnels 1, 2) over threshold: the pick moves to tunnel 3 (10 ms
  // on pop 0), not tunnel 0 (20 ms on pop 0).
  load.OnAssign(1, 900.0);
  EXPECT_EQ(policy.Pick(Views(), load), 3);
  // Both pops saturated: degrade to latency-only (tunnel 1), never -1.
  load.OnAssign(0, 900.0);
  EXPECT_EQ(policy.Pick(Views(), load), 1);
}

TEST(EngineTest, KeyForIsInjectiveOverUgAndSeq) {
  const auto a = WorkloadEngine::KeyFor(FlowEvent{.ug = 1, .seq = 2});
  const auto b = WorkloadEngine::KeyFor(FlowEvent{.ug = 1, .seq = 3});
  const auto c = WorkloadEngine::KeyFor(FlowEvent{.ug = 2, .seq = 2});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

// End-to-end smoke: a small trace replayed against a live TM-Edge. Every
// admitted flow must complete (load gauges drain to zero), nothing may pick
// a down tunnel, and accounting must balance.
TEST(EngineTest, ReplaysTraceAgainstEdgeAndDrains) {
  netsim::Simulator sim;
  tm::TmPop pop_a{sim, "A", {0x02020202u}};
  tm::TmPop pop_b{sim, "B", {0x03030303u}};
  std::vector<tm::TunnelConfig> tunnels;
  tunnels.push_back(tm::TunnelConfig{.name = "t0",
                                     .remote_ip = 0x0a0a0a00u,
                                     .path = netsim::PathModel::Fixed(0.010),
                                     .pop = &pop_a});
  tunnels.push_back(tm::TunnelConfig{.name = "t1",
                                     .remote_ip = 0x0a0a0a01u,
                                     .path = netsim::PathModel::Fixed(0.020),
                                     .pop = &pop_b});
  tm::TmEdge edge{sim, {.seed = 3}, std::move(tunnels)};

  TraceConfig tc;
  tc.seed = 3;
  tc.duration_s = 10.0;
  tc.mean_flows_per_s = 30.0;
  tc.size_max_bytes = 1.0e6;
  const Trace trace = GenerateTrace(tc, SyntheticUgProfiles(8, 3));
  ASSERT_GT(trace.events.size(), 0u);

  LoadTracker load{{5.0e5, 5.0e5}};
  const LoadAwarePolicy policy{0.85};
  EngineConfig ecfg;
  ecfg.flow_bytes_per_s = 50.0e3;
  ecfg.min_duration_s = 0.5;
  ecfg.max_duration_s = 4.0;
  WorkloadEngine engine{sim, edge, {0, 1}, load, policy, trace, ecfg};
  edge.Start();
  engine.Start();
  sim.Run(tc.duration_s + 10.0);

  const WorkloadEngine::Stats& s = engine.stats();
  EXPECT_EQ(s.arrivals, trace.events.size());
  EXPECT_EQ(s.started + s.rejected, s.arrivals);
  EXPECT_GT(s.started, 0u);
  EXPECT_EQ(s.down_picks, 0u);
  EXPECT_EQ(s.completed, s.started);  // final drain released everything
  EXPECT_EQ(engine.Concurrent(), 0u);
  EXPECT_GT(s.peak_concurrent, 0u);
  EXPECT_DOUBLE_EQ(load.OfferedBps(0), 0.0);
  EXPECT_DOUBLE_EQ(load.OfferedBps(1), 0.0);
  EXPECT_GT(s.max_utilization, 0.0);
}

// EngineConfig validation: TimingFor clamps a flow's duration into
// [min_duration_s, max_duration_s] (undefined when min > max) and the
// sharded replay sizes its expiry ring from max_duration_s, so both engines
// reject a config TimingFor is not defined on before sizing anything.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

class EngineConfigValidation : public ::testing::Test {
 protected:
  EngineConfigValidation() {
    std::vector<tm::TunnelConfig> tunnels;
    tunnels.push_back(tm::TunnelConfig{.name = "t0",
                                       .remote_ip = 0x0a0a0a00u,
                                       .path = netsim::PathModel::Fixed(0.010),
                                       .pop = &pop_});
    edge_ = std::make_unique<tm::TmEdge>(sim_, tm::TmEdge::Config{},
                                         std::move(tunnels));
    trace_.duration_us = 1'000'000;
  }

  // Expects both engine constructors to throw std::invalid_argument.
  void ExpectRejected(const EngineConfig& config) {
    EXPECT_THROW((WorkloadEngine{sim_, *edge_, {0}, load_, policy_, trace_,
                                 config}),
                 std::invalid_argument);
    ShardedReplayConfig sharded;
    sharded.shards = 2;
    sharded.engine = config;
    EXPECT_THROW((ShardedWorkloadReplay{sim_, *edge_, {0}, load_, policy_,
                                        trace_, sharded}),
                 std::invalid_argument);
  }

  netsim::Simulator sim_;
  tm::TmPop pop_{sim_, "A", {0x02020202u}};
  std::unique_ptr<tm::TmEdge> edge_;
  LoadTracker load_{{1.0e6}};
  const LatencyOnlyPolicy policy_;
  Trace trace_;
};

TEST_F(EngineConfigValidation, AcceptsTheDefaultsAndAZeroLengthWindow) {
  EXPECT_NO_THROW(ValidateEngineConfig(EngineConfig{}));
  EngineConfig config;
  config.min_duration_s = 0.0;
  config.max_duration_s = 0.0;
  EXPECT_NO_THROW((WorkloadEngine{sim_, *edge_, {0}, load_, policy_, trace_,
                                  config}));
  ShardedReplayConfig sharded;
  sharded.engine = config;
  EXPECT_NO_THROW((ShardedWorkloadReplay{sim_, *edge_, {0}, load_, policy_,
                                         trace_, sharded}));
}

TEST_F(EngineConfigValidation, RejectsNonFiniteOrNonPositiveFlowRate) {
  for (const double rate : {0.0, -1.0, kNaN, kInf}) {
    EngineConfig config;
    config.flow_bytes_per_s = rate;
    ExpectRejected(config);
  }
}

TEST_F(EngineConfigValidation, RejectsNegativeOrNonFiniteMinDuration) {
  for (const double min : {-0.5, kNaN, -kInf, kInf}) {
    EngineConfig config;
    config.min_duration_s = min;
    ExpectRejected(config);
  }
}

TEST_F(EngineConfigValidation, RejectsNonFiniteMaxDuration) {
  for (const double max : {kNaN, kInf}) {
    EngineConfig config;
    config.max_duration_s = max;
    ExpectRejected(config);
  }
}

TEST_F(EngineConfigValidation, RejectsMinDurationAboveMax) {
  EngineConfig config;
  config.min_duration_s = 10.0;
  config.max_duration_s = 9.5;
  ExpectRejected(config);
}

}  // namespace
}  // namespace painter::workload
