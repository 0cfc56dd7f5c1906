// Heap allocations of a sharded workload replay, counted by replacing the
// global operator new in this binary.
//
// The replay's steady state allocates nothing: simulator handlers live in
// reused slots, pins in a reused pool under an expiry ring as long as the
// longest pin lifetime, and every per-epoch buffer is reused. So the
// allocations of Start() + Run() do not grow with the trace: doubling it
// (with the ring wrapping many times over) adds fewer than 100.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "netsim/path.h"
#include "netsim/sim.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"
#include "workload/engine.h"
#include "workload/load.h"
#include "workload/sharded_engine.h"
#include "workload/trace.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace painter {
namespace {

struct Replay {
  std::uint64_t allocations = 0;  // in Start() + Run()
  workload::WorkloadEngine::Stats stats;
  std::size_t control_events = 0;
};

// perfbench's diurnal_replay world (8 tunnels over 4 PoPs, 50 ms probes,
// 4 shards, load-aware policy) on a shorter, thinner trace with a 60 s cap.
Replay RunReplay(double trace_s) {
  workload::TraceConfig tc;
  tc.seed = 1;
  tc.duration_s = trace_s;
  tc.mean_flows_per_s = 100.0;
  const workload::Trace trace =
      workload::GenerateTrace(tc, workload::SyntheticUgProfiles(64, 1));

  netsim::Simulator sim;
  std::vector<std::unique_ptr<tm::TmPop>> pops;
  std::vector<tm::TunnelConfig> tunnels;
  std::vector<int> tunnel_pop;
  for (std::size_t p = 0; p < 4; ++p) {
    pops.push_back(std::make_unique<tm::TmPop>(
        sim, "PoP-" + std::to_string(p),
        std::vector<netsim::IpAddr>{
            0x02020202u + 0x01010101u * static_cast<netsim::IpAddr>(p)}));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    tunnels.push_back(tm::TunnelConfig{
        .name = "tunnel-" + std::to_string(i),
        .remote_ip = 0x0a0a0a00u + static_cast<netsim::IpAddr>(i),
        .path =
            netsim::PathModel::Fixed(0.010 + 0.002 * static_cast<double>(i)),
        .pop = pops[i % 4].get()});
    tunnel_pop.push_back(static_cast<int>(i % 4));
  }
  tm::TmEdge edge{sim, tm::TmEdge::Config{.probe_interval_s = 0.050},
                  std::move(tunnels)};
  workload::LoadTracker load{std::vector<double>(4, 1.0e6)};
  const workload::LoadAwarePolicy policy{0.85};
  workload::ShardedReplayConfig cfg;
  cfg.shards = 4;
  cfg.engine.flow_bytes_per_s = 100.0;
  cfg.engine.min_duration_s = 10.0;
  cfg.engine.max_duration_s = 60.0;
  workload::ShardedWorkloadReplay replay{sim,  edge,   tunnel_pop, load,
                                         policy, trace, cfg};

  const std::uint64_t before = g_allocations.load();
  edge.Start();
  replay.Start();
  replay.Run(trace_s + 2.0);
  Replay out;
  out.allocations = g_allocations.load() - before;
  out.stats = replay.stats();
  out.control_events = sim.ExecutedEvents();
  EXPECT_EQ(out.stats.completed, trace.events.size());
  return out;
}

TEST(ReplayAllocations, CountingNewSeesHeapAllocations) {
  const std::uint64_t before = g_allocations.load();
  auto boxed = std::make_unique<std::vector<int>>(16);
  EXPECT_EQ(g_allocations.load() - before, 2u);
}

TEST(ReplayAllocations, DoNotGrowWithTheTrace) {
  RunReplay(30.0);  // one-time set-up, such as the metric handles
  const Replay once = RunReplay(300.0);
  const Replay twice = RunReplay(600.0);
  // The work about doubled: flows (on a diurnal curve), probe events, laps
  // of the 602-slot ring.
  EXPECT_GT(once.stats.started, 15'000u);
  EXPECT_GT(twice.stats.started, once.stats.started * 3 / 2);
  EXPECT_GT(twice.control_events, once.control_events * 19 / 10);
  EXPECT_LT(once.allocations, 1'000u);
  EXPECT_LT(twice.allocations, once.allocations + 100)
      << "300 s: " << once.allocations << ", 600 s: " << twice.allocations;
}

}  // namespace
}  // namespace painter
