// Property suite for the sharded timeline (DESIGN.md §13).
//
// The headline property: the sharded workload replay is a pure function of
// (world, trace, config) — bit-identical canonical stats at every shard
// count in {1, 2, 4, 8}, serially and under chaos plans, pinned to exact
// hashes so a change to the engine cannot move them unnoticed. Plus the
// epoch-barrier edge cases the determinism argument leans on: an event
// landing exactly on a barrier belongs to the epoch that ends there, and
// cross-shard load deltas merged at the barrier land in canonical trace
// order. And the live-pin count, the replay's only record of occupancy,
// agrees with a reference pin table.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/shard.h"
#include "netsim/sim.h"
#include "timeline/unified.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"
#include "workload/chaos_load.h"
#include "workload/engine.h"
#include "workload/load.h"
#include "workload/sharded_engine.h"
#include "workload/trace.h"

namespace painter {
namespace {

using netsim::ShardedSimulator;

// ---------------------------------------------------------------------------
// ShardedSimulator: barrier protocol.

TEST(ShardedSimulatorTest, RejectsBadConfig) {
  netsim::Simulator control;
  EXPECT_THROW(
      (ShardedSimulator{control, {.shards = 3, .epoch_us = 100}}),
      std::invalid_argument);
  EXPECT_THROW(
      (ShardedSimulator{control, {.shards = 0, .epoch_us = 100}}),
      std::invalid_argument);
  EXPECT_THROW(
      (ShardedSimulator{control, {.shards = 512, .epoch_us = 100}}),
      std::invalid_argument);
  EXPECT_THROW(
      (ShardedSimulator{control, {.shards = 4, .epoch_us = 0}}),
      std::invalid_argument);
}

TEST(ShardedSimulatorTest, ShardOfTakesTopFingerprintBits) {
  netsim::Simulator control;
  const ShardedSimulator des{control, {.shards = 4, .epoch_us = 100}};
  EXPECT_EQ(des.ShardOf(0x0000'0000'0000'0000ull), 0u);
  EXPECT_EQ(des.ShardOf(0x3FFF'FFFF'FFFF'FFFFull), 0u);
  EXPECT_EQ(des.ShardOf(0x4000'0000'0000'0000ull), 1u);
  EXPECT_EQ(des.ShardOf(0xFFFF'FFFF'FFFF'FFFFull), 3u);

  const ShardedSimulator one{control, {.shards = 1, .epoch_us = 100}};
  EXPECT_EQ(one.ShardOf(0xFFFF'FFFF'FFFF'FFFFull), 0u);
}

// Hooks fire once per epoch, on the grid, with control run to the boundary
// before prepare and shards run to the boundary before merge.
TEST(ShardedSimulatorTest, EpochProtocolOrdering) {
  netsim::Simulator control;
  ShardedSimulator des{control, {.shards = 2, .epoch_us = 100}};

  std::vector<std::string> log;
  control.ScheduleAtUs(50, [&] { log.push_back("control@50"); });
  control.ScheduleAtUs(250, [&] { log.push_back("control@250"); });
  des.shard(0).ScheduleAtUs(150, [&] { log.push_back("shard0@150"); });
  des.shard(1).ScheduleAtUs(300, [&] { log.push_back("shard1@300"); });

  des.Run(
      300,
      [&](std::uint64_t e, netsim::SimTime b) {
        log.push_back("prepare" + std::to_string(e) + "@" + std::to_string(b));
      },
      [&](std::uint64_t e, netsim::SimTime b) {
        log.push_back("merge" + std::to_string(e) + "@" + std::to_string(b));
      });

  const std::vector<std::string> expected{
      "control@50",  "prepare0@100", "merge0@100",
      "prepare1@200", "shard0@150",  "merge1@200",
      "control@250", "prepare2@300", "shard1@300",  "merge2@300"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(des.stats().epochs, 3u);
}

// An event scheduled exactly on a barrier executes in the epoch that ends
// there. A shard event on the barrier runs after that epoch's prepare (it
// sees the epoch's published snapshot); a control event on the barrier runs
// before it (control runs to the boundary first, so prepare's snapshot
// includes every control effect up to and including the boundary).
TEST(ShardedSimulatorTest, EventExactlyOnBarrierRunsInThatEpoch) {
  netsim::Simulator control;
  ShardedSimulator des{control, {.shards = 2, .epoch_us = 100}};
  std::uint64_t control_sees = ~0ull;  // prepare generation at control event
  std::uint64_t shard_sees = ~0ull;    // prepare generation at shard event
  std::uint64_t current = ~0ull;
  control.ScheduleAtUs(200, [&] { control_sees = current; });
  des.shard(1).ScheduleAtUs(200, [&] { shard_sees = current; });
  des.Run(
      400, [&](std::uint64_t e, netsim::SimTime) { current = e; },
      nullptr);
  EXPECT_EQ(control_sees, 0u);  // ran before prepare(1), after prepare(0)
  EXPECT_EQ(shard_sees, 1u);    // ran inside epoch 1's shard phase
}

// A Run() horizon mid-epoch pauses and resumes without losing the grid.
TEST(ShardedSimulatorTest, ResumesAcrossPartialEpochs) {
  netsim::Simulator control;
  ShardedSimulator des{control, {.shards = 1, .epoch_us = 100}};
  std::vector<netsim::SimTime> boundaries;
  const auto merge = [&](std::uint64_t, netsim::SimTime b) {
    boundaries.push_back(b);
  };
  bool ran = false;
  des.shard(0).ScheduleAtUs(140, [&] { ran = true; });
  des.Run(150, nullptr, merge);
  EXPECT_EQ(boundaries, (std::vector<netsim::SimTime>{100, 150}));
  EXPECT_TRUE(ran);  // 140 <= the partial boundary 150
  des.Run(310, nullptr, merge);
  EXPECT_EQ(boundaries,
            (std::vector<netsim::SimTime>{100, 150, 200, 300, 310}));
  EXPECT_EQ(control.NowUs(), 310u);
  EXPECT_EQ(des.shard(0).NowUs(), 310u);
}

// Every shard's events run on the thread that called Run().
TEST(ShardedSimulatorTest, RunsShardsOnTheCallingThread) {
  netsim::Simulator control;
  ShardedSimulator des{control, {.shards = 4, .epoch_us = 50}};
  // One list per shard, so a shard running elsewhere cannot race another.
  std::vector<std::vector<std::thread::id>> ran_on(4);
  for (std::size_t s = 0; s < 4; ++s) {
    for (netsim::SimTime t = 10 * (s + 1); t <= 400; t += 35) {
      des.shard(s).ScheduleAtUs(t, [&ran_on, s] {
        ran_on[s].push_back(std::this_thread::get_id());
      });
    }
  }
  des.Run(400, nullptr, nullptr);
  for (std::size_t s = 0; s < 4; ++s) {
    ASSERT_FALSE(ran_on[s].empty()) << "shard " << s;
    for (const std::thread::id id : ran_on[s]) {
      EXPECT_EQ(id, std::this_thread::get_id()) << "shard " << s;
    }
  }
}

TEST(ShardedSimulatorTest, StatsMeasureSkewAndQueueDepth) {
  netsim::Simulator control;
  ShardedSimulator des{control, {.shards = 2, .epoch_us = 100}};
  // Epoch 0: three events on shard 0, none on shard 1 -> skew 3. Shard 1
  // holds a far-future event, so its queue depth at the barrier is 1.
  for (netsim::SimTime t : {10, 20, 30}) {
    des.shard(0).ScheduleAtUs(t, [] {});
  }
  des.shard(1).ScheduleAtUs(10'000, [] {});
  des.Run(100, nullptr, nullptr);
  EXPECT_EQ(des.stats().epochs, 1u);
  EXPECT_EQ(des.stats().max_epoch_skew_events, 3u);
  EXPECT_EQ(des.stats().total_epoch_skew_events, 3u);
  EXPECT_GE(des.stats().max_queue_depth, 1u);
  EXPECT_EQ(des.stats().shard_executed_events,
            (std::vector<std::uint64_t>{3, 0}));
}

// ---------------------------------------------------------------------------
// ShardedWorkloadReplay: bit-identity across shard counts.

struct ReplayWorld {
  netsim::Simulator sim;
  std::vector<std::unique_ptr<tm::TmPop>> pops;
  std::unique_ptr<tm::TmEdge> edge;
  std::vector<int> tunnel_pop;
  workload::LoadTracker load{{}};
};

// The workload_throughput convention: 8 tunnels round-robin over 4 PoPs,
// fixed delays. Small capacities so the load-aware threshold binds and the
// saturated/fallback paths get exercised.
void BuildReplayWorld(ReplayWorld& w, std::uint64_t seed) {
  constexpr std::size_t kPops = 4;
  constexpr std::size_t kTunnels = 8;
  for (std::size_t p = 0; p < kPops; ++p) {
    w.pops.push_back(std::make_unique<tm::TmPop>(
        w.sim, "PoP-" + std::to_string(p),
        std::vector<netsim::IpAddr>{
            0x02020202u + 0x01010101u * static_cast<netsim::IpAddr>(p)}));
  }
  std::vector<tm::TunnelConfig> tunnels;
  for (std::size_t i = 0; i < kTunnels; ++i) {
    w.tunnel_pop.push_back(static_cast<int>(i % kPops));
    tunnels.push_back(tm::TunnelConfig{
        .name = "tunnel-" + std::to_string(i),
        .remote_ip = 0x0a0a0a00u + static_cast<netsim::IpAddr>(i),
        .path = netsim::PathModel::Fixed(0.010 +
                                         0.002 * static_cast<double>(i)),
        .pop = w.pops[i % kPops].get()});
  }
  w.edge = std::make_unique<tm::TmEdge>(
      w.sim, tm::TmEdge::Config{.probe_interval_s = 0.050, .seed = seed},
      std::move(tunnels));
  w.load = workload::LoadTracker{std::vector<double>(kPops, 2.0e5)};
}

workload::Trace SmallTrace(std::uint64_t seed) {
  workload::TraceConfig tc;
  tc.seed = seed;
  tc.duration_s = 30.0;
  tc.mean_flows_per_s = 120.0;
  tc.size_max_bytes = 5.0e6;
  return workload::GenerateTrace(tc, workload::SyntheticUgProfiles(24, seed));
}

workload::EngineConfig ReplayEngineConfig() {
  workload::EngineConfig ecfg;
  ecfg.flow_bytes_per_s = 50.0e3;
  ecfg.min_duration_s = 1.0;
  ecfg.max_duration_s = 20.0;
  return ecfg;
}

// Replays `trace` to its end and returns CanonicalStats(). Expects every pin
// released unless `live_at_end` asks for the count instead.
std::string RunShardedReplay(
    std::uint64_t seed, const workload::Trace& trace, std::size_t shards,
    workload::ShardedWorkloadReplay::Stats* stats = nullptr,
    const workload::EngineConfig& engine = ReplayEngineConfig(),
    std::size_t* live_at_end = nullptr) {
  ReplayWorld w;
  BuildReplayWorld(w, seed);
  workload::ShardedReplayConfig cfg;
  cfg.shards = shards;
  cfg.engine = engine;
  const workload::LoadAwarePolicy policy{0.85};  // must outlive the replay
  workload::ShardedWorkloadReplay replay{
      w.sim, *w.edge, w.tunnel_pop, w.load, policy, trace, std::move(cfg)};
  w.edge->Start();
  replay.Start();
  replay.Run(trace.events.empty()
                 ? 1.0
                 : netsim::SecondsFromUs(trace.duration_us) + 25.0);
  if (stats != nullptr) *stats = replay.stats();
  if (live_at_end != nullptr) {
    *live_at_end = replay.Concurrent();
  } else {
    EXPECT_EQ(replay.Concurrent(), 0u) << "replay did not drain";
  }
  return replay.CanonicalStats();
}

TEST(ShardReplayProperty, BitIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {3ull, 11ull, 29ull}) {
    const workload::Trace trace = SmallTrace(seed);
    ASSERT_GT(trace.events.size(), 100u);
    workload::ShardedWorkloadReplay::Stats base_stats;
    const std::string base = RunShardedReplay(seed, trace, 1, &base_stats);
    EXPECT_EQ(base_stats.arrivals, trace.events.size());
    EXPECT_GT(base_stats.started, 0u);
    EXPECT_EQ(base_stats.down_picks, 0u);
    EXPECT_EQ(base_stats.max_tick_skew_us, 0u);
    EXPECT_EQ(base_stats.completed, base_stats.started);
    for (const std::size_t shards : {2u, 4u, 8u}) {
      EXPECT_EQ(RunShardedReplay(seed, trace, shards), base)
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ShardReplayProperty, RerunIsByteIdentical) {
  const std::uint64_t seed = 19;
  const workload::Trace trace = SmallTrace(seed);
  EXPECT_EQ(RunShardedReplay(seed, trace, 4), RunShardedReplay(seed, trace, 4));
}

// One record per pin: the replay keeps no flow table, only a count of live
// pins per shard. Under LatencyOnlyPolicy the per-tick decision does not
// read load, so a plain reference pin table must start, complete and peak
// on exactly the same flows.
struct PinCounts {
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t peak_concurrent = 0;
  std::size_t concurrent_at_end = 0;
};

PinCounts RunLatencyOnly(std::uint64_t seed, const workload::Trace& trace,
                         std::size_t shards) {
  ReplayWorld w;
  BuildReplayWorld(w, seed);
  const workload::LatencyOnlyPolicy policy;
  workload::ShardedReplayConfig cfg;
  cfg.shards = shards;
  cfg.engine = ReplayEngineConfig();
  workload::ShardedWorkloadReplay replay{
      w.sim, *w.edge, w.tunnel_pop, w.load, policy, trace, std::move(cfg)};
  w.edge->Start();
  replay.Start();
  replay.Run(netsim::SecondsFromUs(trace.duration_us) + 25.0);
  const auto& st = replay.stats();
  return PinCounts{st.started, st.completed, st.peak_concurrent,
                   replay.Concurrent()};
}

// The reference: the replay's tick loop with none of its machinery — no
// shards, pool or ring. It ticks on its own world's simulator at
// start + (k+1)·tick, admits every arrival due by then when LatencyOnlyPolicy
// picks a tunnel from SnapshotViews, keeps its pins in a std::map by expiry
// bucket, and after the admissions releases every bucket up to k.
PinCounts RunReferencePinTable(std::uint64_t seed,
                               const workload::Trace& trace) {
  ReplayWorld w;
  BuildReplayWorld(w, seed);
  const workload::LatencyOnlyPolicy policy;
  const workload::EngineConfig config = ReplayEngineConfig();
  const netsim::SimTime tick_us = netsim::UsFromSeconds(config.tick_s);
  std::map<std::uint64_t, std::uint64_t> pins;  // expiry bucket -> pins
  std::vector<workload::TunnelView> views;
  PinCounts counts;
  std::size_t cursor = 0;
  std::uint64_t k = 0;
  std::function<void()> tick = [&] {
    const std::uint64_t now_us = (k + 1) * tick_us;
    workload::SnapshotViews(*w.edge, w.tunnel_pop, views);
    const bool admit = policy.Pick(views, w.load) >= 0;
    const std::vector<workload::FlowEvent>& events = trace.events;
    for (; cursor < events.size() && events[cursor].start_us <= now_us;
         ++cursor) {
      if (!admit) continue;
      ++pins[workload::TimingFor(events[cursor], config).expiry_us / tick_us];
      ++counts.started;
      ++counts.concurrent_at_end;
    }
    counts.peak_concurrent = std::max<std::uint64_t>(
        counts.peak_concurrent, counts.concurrent_at_end);
    while (!pins.empty() && pins.begin()->first <= k) {
      counts.completed += pins.begin()->second;
      counts.concurrent_at_end -= pins.begin()->second;
      pins.erase(pins.begin());
    }
    ++k;
    if (cursor < events.size() || !pins.empty()) {
      w.sim.ScheduleAtUs((k + 1) * tick_us, [&tick] { tick(); });
    }
  };
  w.edge->Start();
  w.sim.ScheduleAtUs(tick_us, [&tick] { tick(); });
  w.sim.Run(netsim::SecondsFromUs(trace.duration_us) + 25.0);
  return counts;
}

TEST(ShardReplayProperty, LiveCountMatchesReferencePinTable) {
  for (const std::uint64_t seed : {3ull, 11ull}) {
    const workload::Trace trace = SmallTrace(seed);
    const PinCounts reference = RunReferencePinTable(seed, trace);
    EXPECT_GT(reference.started, trace.events.size() / 2) << "seed " << seed;
    EXPECT_EQ(reference.completed, reference.started) << "seed " << seed;
    EXPECT_GT(reference.peak_concurrent, 100u) << "seed " << seed;
    EXPECT_EQ(reference.concurrent_at_end, 0u) << "seed " << seed;
    for (const std::size_t shards : {1u, 4u}) {
      const PinCounts replay = RunLatencyOnly(seed, trace, shards);
      EXPECT_EQ(replay.started, reference.started)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(replay.completed, reference.completed)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(replay.peak_concurrent, reference.peak_concurrent)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(replay.concurrent_at_end, 0u)
          << "seed " << seed << " shards " << shards;
    }
  }
}

// Exact-output pin: FNV-1a over CanonicalStats() bytes. The identity tests
// above compare shard counts with each other; this compares them with the
// engine's recorded output, so a change that moves every shard count at
// once still fails. Changing a constant is a re-baseline.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ShardReplayPin, CanonicalStatsHash) {
  const std::pair<std::uint64_t, std::uint64_t> want[] = {
      {3, 0x5a6e0460589528ccULL}, {11, 0xf653f6196f082112ULL}};
  for (const auto& [seed, hash] : want) {
    const workload::Trace trace = SmallTrace(seed);
    for (const std::size_t shards : {1u, 4u}) {
      EXPECT_EQ(Fnv1a(RunShardedReplay(seed, trace, shards)), hash)
          << "seed " << seed << " shards " << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch-boundary edge cases (hand-built traces).

workload::Trace HandTrace(std::vector<workload::FlowEvent> events,
                          std::uint64_t duration_us) {
  workload::Trace t;
  t.seed = 1;
  t.duration_us = duration_us;
  t.events = std::move(events);
  return t;
}

std::string RunHandTrace(const workload::Trace& trace, std::size_t shards,
                         workload::ShardedWorkloadReplay::Stats* stats) {
  return RunShardedReplay(5, trace, shards, stats);
}

// An arrival exactly on a tick boundary (start_us == k * tick_us) is
// admitted by tick k — `<=` on the integer clock, no float truncation.
TEST(ShardReplayEdge, ArrivalExactlyOnTickBoundaryIsAdmittedThatTick) {
  // tick_s = 0.1 -> tick 0 fires at trace time 100000 exactly.
  const workload::Trace trace = HandTrace(
      {workload::FlowEvent{
          .start_us = 100'000, .ug = 1, .seq = 1, .bytes = 50'000}},
      300'000);
  workload::ShardedWorkloadReplay::Stats stats;
  RunHandTrace(trace, 2, &stats);
  EXPECT_EQ(stats.arrivals, 1u);
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.peak_concurrent, 1u);
}

// An expiry exactly on a bucket edge (expiry_us == k * tick_us) lands in
// bucket k and is released exactly once, by tick k.
TEST(ShardReplayEdge, ExpiryExactlyOnBucketEdgeReleasesOnce) {
  // bytes / flow_bytes_per_s = 50000/50000 = 1.0 s (the clamp floor), so
  // expiry_us = 100000 + 1000000 = 1100000 = 11 * tick_us exactly.
  const workload::Trace trace = HandTrace(
      {workload::FlowEvent{
          .start_us = 100'000, .ug = 2, .seq = 9, .bytes = 50'000}},
      2'000'000);
  workload::ShardedWorkloadReplay::Stats stats;
  RunHandTrace(trace, 4, &stats);
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// Two same-tick arrivals that land on different shards: their load deltas
// cross the barrier as messages and must merge in trace order — the
// canonical stats equal the single-shard run's byte for byte.
TEST(ShardReplayEdge, CrossShardDeltasAtEpochEndMergeCanonically) {
  // Find two events mapping to different shards at shards = 2.
  netsim::Simulator control;
  const ShardedSimulator des{control, {.shards = 2, .epoch_us = 100'000}};
  std::vector<workload::FlowEvent> events;
  std::uint32_t seq = 0;
  bool have[2] = {false, false};
  while (!(have[0] && have[1])) {
    const workload::FlowEvent ev{
        .start_us = 40'000, .ug = 3, .seq = ++seq, .bytes = 80'000};
    const std::size_t s = des.ShardOf(
        netsim::FlowKeyFingerprint(workload::ShardedWorkloadReplay::KeyFor(ev)));
    if (have[s]) continue;
    have[s] = true;
    events.push_back(ev);
  }
  std::sort(events.begin(), events.end());
  const workload::Trace trace = HandTrace(std::move(events), 300'000);

  workload::ShardedWorkloadReplay::Stats one_stats;
  workload::ShardedWorkloadReplay::Stats two_stats;
  const std::string one = RunHandTrace(trace, 1, &one_stats);
  const std::string two = RunHandTrace(trace, 2, &two_stats);
  EXPECT_EQ(one, two);
  EXPECT_EQ(two_stats.started, 2u);
  EXPECT_EQ(two_stats.peak_concurrent, 2u);
}

// ---------------------------------------------------------------------------
// The expiry ring (DESIGN.md §13): a pin admitted at tick k lives in bucket
// k .. k + 1 + max_duration_s / tick, and the ring has exactly that many
// slots. Each case pins CanonicalStats() at every shard count to the hash
// the per-tick bucket wheel it replaced produced; changing one is a
// re-baseline.

workload::EngineConfig EngineWith(double flow_bytes_per_s, double min_s,
                                  double max_s) {
  workload::EngineConfig ecfg;
  ecfg.flow_bytes_per_s = flow_bytes_per_s;
  ecfg.min_duration_s = min_s;
  ecfg.max_duration_s = max_s;
  return ecfg;
}

void ExpectPinnedAtEveryShardCount(const workload::Trace& trace,
                                   const workload::EngineConfig& engine,
                                   std::uint64_t hash) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    workload::ShardedWorkloadReplay::Stats stats;
    EXPECT_EQ(Fnv1a(RunShardedReplay(5, trace, shards, &stats, engine)), hash)
        << "shards " << shards;
    EXPECT_EQ(stats.completed, stats.started) << "shards " << shards;
  }
}

// One arrival on every tick boundary, each clamped to exactly
// max_duration_s: admitted at tick k, it expires on the edge of bucket
// k + 1 + 20, the farthest slot ahead of the tick.
TEST(ShardRingPin, LifetimesOfExactlyMaxDuration) {
  std::vector<workload::FlowEvent> events;
  for (std::uint32_t k = 1; k <= 60; ++k) {
    events.push_back(workload::FlowEvent{.start_us = k * 100'000ull,
                                         .ug = 1 + k % 3,
                                         .seq = k,
                                         .bytes = 100'000ull + 997 * k});
  }
  std::sort(events.begin(), events.end());
  const workload::Trace trace = HandTrace(std::move(events), 8'000'000);
  ExpectPinnedAtEveryShardCount(trace, EngineWith(50.0e3, 1.0, 2.0),
                                0x38b76449887dd5d2ULL);
  // The generated trace with every flow at the cap (>= 2 kB at 100 B/s).
  ExpectPinnedAtEveryShardCount(SmallTrace(3), EngineWith(100.0, 1.0, 2.0),
                                0x6ade264162d4797eULL);
}

// Flows alive at the end of a 30 s trace under a 20 s cap expire past its
// last bucket and are clamped into it; the final drain releases them.
TEST(ShardRingPin, PostTraceExpiriesClampIntoTheLastBucket) {
  ExpectPinnedAtEveryShardCount(SmallTrace(11), EngineWith(500.0, 1.0, 20.0),
                                0x5c6731d91e789294ULL);
}

// A cap at least as long as the trace (one slot per bucket), and caps much
// shorter than it, one of them not a whole number of ticks (3.5 and 25.5
// ticks: rings of 5 and 27 slots wrap over 300 ticks).
TEST(ShardRingPin, MaxDurationLongerAndMuchShorterThanTheTrace) {
  const workload::Trace trace = SmallTrace(29);
  ExpectPinnedAtEveryShardCount(trace, EngineWith(5.0e3, 1.0, 40.0),
                                0x9f90baea7fc458e1ULL);
  ExpectPinnedAtEveryShardCount(trace, EngineWith(50.0e3, 0.1, 0.35),
                                0x21c8c950fc046ba0ULL);
  ExpectPinnedAtEveryShardCount(trace, EngineWith(20.0e3, 0.5, 2.55),
                                0x8de36547b9b28083ULL);
}

// A flow that starts after the trace's last bucket has drained is clamped
// into that bucket behind the tick, so it is never released: it stays in
// live_flows.
TEST(ShardRingPin, FlowsStartingAfterTheLastBucketStayLive) {
  const workload::Trace trace = HandTrace(
      {workload::FlowEvent{
           .start_us = 500'000, .ug = 1, .seq = 1, .bytes = 60'000},
       workload::FlowEvent{
           .start_us = 1'500'000, .ug = 1, .seq = 2, .bytes = 70'000},
       workload::FlowEvent{
           .start_us = 2'000'000, .ug = 2, .seq = 1, .bytes = 80'000}},
      1'000'000);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    std::size_t live = 0;
    workload::ShardedWorkloadReplay::Stats stats;
    const std::string canonical = RunShardedReplay(
        5, trace, shards, &stats, ReplayEngineConfig(), &live);
    EXPECT_EQ(Fnv1a(canonical), 0xa112a7ac67eefb36ULL) << "shards " << shards;
    EXPECT_EQ(stats.started, 3u) << "shards " << shards;
    EXPECT_EQ(stats.completed, 1u) << "shards " << shards;
    EXPECT_EQ(live, 2u) << "shards " << shards;
  }
}

// ---------------------------------------------------------------------------
// Chaos plans: invariants and stats identical at every shard count.

TEST(ShardChaosProperty, InvariantsAndStatsIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    workload::ChaosLoadConfig cfg;
    cfg.shards = 1;
    const workload::ChaosLoadResult base =
        workload::RunChaosUnderLoad(seed, {}, cfg);
    EXPECT_TRUE(base.ok()) << "seed " << seed;
    EXPECT_GT(base.load_stats.started, 0u);
    for (const std::size_t shards : {2u, 4u}) {
      workload::ChaosLoadConfig scfg;
      scfg.shards = shards;
      const workload::ChaosLoadResult got =
          workload::RunChaosUnderLoad(seed, {}, scfg);
      EXPECT_TRUE(got.ok()) << "seed " << seed << " shards " << shards;
      EXPECT_EQ(got.invariants.violations, base.invariants.violations);
      EXPECT_EQ(got.load_stats.arrivals, base.load_stats.arrivals);
      EXPECT_EQ(got.load_stats.started, base.load_stats.started);
      EXPECT_EQ(got.load_stats.rejected, base.load_stats.rejected);
      EXPECT_EQ(got.load_stats.completed, base.load_stats.completed);
      EXPECT_EQ(got.load_stats.peak_concurrent,
                base.load_stats.peak_concurrent);
      EXPECT_EQ(got.load_stats.down_picks, base.load_stats.down_picks);
      EXPECT_EQ(got.load_stats.saturated_assignments,
                base.load_stats.saturated_assignments);
      EXPECT_EQ(got.load_stats.bytes_offered, base.load_stats.bytes_offered);
      EXPECT_EQ(got.load_stats.max_utilization,
                base.load_stats.max_utilization);
    }
  }
}

// ---------------------------------------------------------------------------
// Unified timeline: canonical summary invariant in the shard count.

TEST(ShardTimelineProperty, UnifiedSummaryIdenticalAcrossShardCounts) {
  timeline::UnifiedTimelineConfig cfg;
  cfg.seed = 13;
  cfg.stubs = 60;
  cfg.pops = 4;
  cfg.transits = 10;
  cfg.regionals = 20;
  cfg.trace_duration_s = 60.0;
  cfg.mean_flows_per_s = 15.0;
  cfg.round_start_s = 5.0;
  cfg.round_interval_s = 30.0;
  cfg.max_rounds = 2;
  cfg.ttl_s = 15.0;
  cfg.curve_bucket_s = 30.0;
  cfg.shards = 1;
  const std::string base =
      timeline::CanonicalSummary(timeline::RunUnifiedTimeline(cfg));
  for (const std::size_t shards : {2u, 4u}) {
    cfg.shards = shards;
    EXPECT_EQ(timeline::CanonicalSummary(timeline::RunUnifiedTimeline(cfg)),
              base)
        << "shards " << shards;
  }
}

}  // namespace
}  // namespace painter
