// Workload-engine throughput: a simulated day of traffic through the TM-Edge.
//
// Phases:
//   generate   — produce >= 1M flow arrivals from synthetic UG profiles and
//                record the generation rate (flows/s of wall time) plus the
//                trace checksum (the determinism identity).
//   pin_lookup — microbench the sharded flow-pinning store: insert a large
//                working set, then time Find() batches and report p50/p99
//                per-lookup latency.
//   edge_probe_loop — the 8-tunnel TM-Edge alone over the trace horizon:
//                the probe loop every replay below carries, reported as
//                des_events and wall_des_ns_per_event.
//   replay     — drive the full trace through a WorkloadEngine pinned to a
//                TM-Edge (8 tunnels, 4 PoPs), once under the classic
//                latency-only policy and once under the capacity-aware
//                policy, and demand >= 100k concurrently pinned flows.
//   sharded    — replay the same trace through the sharded engine (DESIGN.md
//                §13; every shard on the calling thread) at every shard
//                count in {1, 2, 4, 8}, print the per-count cost table, and
//                demand the runs' canonical stats be byte-identical across
//                shard counts.
//
// Determinism: every non-wall value in the report is a pure function of the
// seed. Wall-clock results live in "wall_*" keys / phase wall_ms, which
// obs::StripVolatile zeroes, so two runs at the same seed produce
// byte-identical stripped reports. The sharded sweep always runs all four
// shard counts regardless of --shards (the flag only selects which count
// feeds the headline wall_replay_sharded_flows_per_s), so the report's key
// set — and therefore the stripped report — is byte-identical across
// --shards 1/2/4/8 too. Exit status is 0 only if the scale gates (events >=
// 1M, peak concurrent >= 100k, zero down-picks, sharded bit-identity) hold.
//
// Usage:
//   workload_throughput                # full-scale run (default seed 7)
//   workload_throughput --seed 11
//   workload_throughput --shards 4     # headline shard count (1, 2, 4 or 8)
//   workload_throughput --smoke        # tiny trace; gates are skipped
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "netsim/path.h"
#include "netsim/sim.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/engine.h"
#include "workload/flow_store.h"
#include "workload/load.h"
#include "workload/sharded_engine.h"
#include "workload/trace.h"

namespace {

using namespace painter;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string Hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

// The bench world: 8 tunnels round-robin over 4 PoPs with fixed one-way
// delays 10..24 ms, so latency-only piles everything onto tunnel 0's PoP
// while the capacity-aware policy spreads.
struct ReplayWorld {
  netsim::Simulator sim;
  std::vector<std::unique_ptr<tm::TmPop>> pops;
  std::unique_ptr<tm::TmEdge> edge;
  std::vector<int> tunnel_pop;
};

constexpr std::size_t kPops = 4;
constexpr std::size_t kTunnels = 8;

std::unique_ptr<ReplayWorld> MakeReplayWorld(std::uint64_t seed) {
  auto w = std::make_unique<ReplayWorld>();
  for (std::size_t p = 0; p < kPops; ++p) {
    w->pops.push_back(std::make_unique<tm::TmPop>(
        w->sim, "PoP-" + std::to_string(p),
        std::vector<netsim::IpAddr>{0x02020202u +
                                    0x01010101u *
                                        static_cast<netsim::IpAddr>(p)}));
  }
  std::vector<tm::TunnelConfig> tunnels;
  for (std::size_t i = 0; i < kTunnels; ++i) {
    const int pop = static_cast<int>(i % kPops);
    tunnels.push_back(tm::TunnelConfig{
        .name = "tunnel-" + std::to_string(i),
        .remote_ip = 0x0a0a0a00u + static_cast<netsim::IpAddr>(i),
        .path = netsim::PathModel::Fixed(0.010 + 0.002 * static_cast<double>(i)),
        .pop = w->pops[static_cast<std::size_t>(pop)].get()});
    w->tunnel_pop.push_back(pop);
  }
  tm::TmEdge::Config ecfg;
  ecfg.seed = seed;
  // The engine samples RTT views once per 100 ms tick; 10 ms probing would
  // only burn DES events without sharpening those views.
  ecfg.probe_interval_s = 0.050;
  w->edge = std::make_unique<tm::TmEdge>(w->sim, ecfg, std::move(tunnels));
  return w;
}

struct ReplayOutcome {
  workload::WorkloadEngine::Stats stats;
  double wall_ms = 0.0;
};

workload::EngineConfig ReplayEngineConfig() {
  workload::EngineConfig ecfg;
  // 10 B/s of service per flow: a 2 kB min-size flow stays pinned ~200 s
  // (cap 600 s), which is what holds >= 100k flows concurrently pinned at
  // ~320 arrivals/s.
  ecfg.flow_bytes_per_s = 10.0;
  ecfg.min_duration_s = 60.0;
  ecfg.max_duration_s = 600.0;
  return ecfg;
}

ReplayOutcome Replay(std::uint64_t seed, const workload::Trace& trace,
                     const workload::DestinationPolicy& policy,
                     double pop_capacity_bps) {
  auto w = MakeReplayWorld(seed);
  workload::LoadTracker load{std::vector<double>(kPops, pop_capacity_bps)};
  workload::WorkloadEngine engine{w->sim,  *w->edge, w->tunnel_pop,       load,
                                  policy,  trace,    ReplayEngineConfig()};
  const auto start = Clock::now();
  w->edge->Start();
  engine.Start();
  w->sim.Run(static_cast<double>(trace.duration_us) / 1e6 + 2.0);
  return ReplayOutcome{.stats = engine.stats(), .wall_ms = MsSince(start)};
}

struct ShardedOutcome {
  workload::WorkloadEngine::Stats stats;
  std::string canonical;  // ShardedWorkloadReplay::CanonicalStats()
  netsim::ShardedSimulator::Stats des;
  double wall_ms = 0.0;
};

ShardedOutcome ReplaySharded(std::uint64_t seed, const workload::Trace& trace,
                             const workload::DestinationPolicy& policy,
                             double pop_capacity_bps, std::size_t shards) {
  auto w = MakeReplayWorld(seed);
  workload::LoadTracker load{std::vector<double>(kPops, pop_capacity_bps)};
  workload::ShardedReplayConfig rcfg;
  rcfg.shards = shards;
  rcfg.engine = ReplayEngineConfig();
  workload::ShardedWorkloadReplay replay{
      w->sim, *w->edge, w->tunnel_pop, load, policy, trace, rcfg};
  const auto start = Clock::now();
  w->edge->Start();
  replay.Start();
  replay.Run(static_cast<double>(trace.duration_us) / 1e6 + 2.0);
  return ShardedOutcome{.stats = replay.stats(),
                        .canonical = replay.CanonicalStats(),
                        .des = replay.des().stats(),
                        .wall_ms = MsSince(start)};
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  std::size_t headline_shards = 4;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      headline_shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr
          << "usage: workload_throughput [--seed S] [--shards N] [--smoke]\n";
      return 64;
    }
  }
  if (headline_shards != 1 && headline_shards != 2 && headline_shards != 4 &&
      headline_shards != 8) {
    std::cerr << "--shards must be 1, 2, 4 or 8 (the sweep always runs all "
                 "four; the flag picks the headline count)\n";
    return 64;
  }

  obs::Metrics().ResetValues();
  obs::RunReport report{"workload_throughput"};
  report.SetSeed(seed);

  // --- generate ---------------------------------------------------------
  workload::TraceConfig tc;
  tc.seed = seed;
  tc.duration_s = smoke ? 120.0 : 3600.0;
  tc.mean_flows_per_s = smoke ? 50.0 : 320.0;
  const std::vector<workload::UgProfile> profiles =
      workload::SyntheticUgProfiles(smoke ? 32 : 512, seed);

  workload::Trace trace;
  double gen_ms = 0.0;
  {
    const obs::RunReport::ScopedPhase phase{report, "generate"};
    const auto start = Clock::now();
    trace = workload::GenerateTrace(tc, profiles);
    gen_ms = MsSince(start);
  }
  const std::uint64_t checksum = workload::TraceChecksum(trace);
  report.AddConfig("duration_s", tc.duration_s);
  report.AddConfig("mean_flows_per_s", tc.mean_flows_per_s);
  report.AddConfig("ug_count", static_cast<double>(profiles.size()));
  report.AddConfig("trace_checksum", Hex64(checksum));
  report.AddValue("trace_events", static_cast<double>(trace.events.size()));
  report.AddValue("wall_gen_flows_per_s",
                  static_cast<double>(trace.events.size()) / (gen_ms / 1e3));
  std::cout << "generate: " << trace.events.size() << " flow events, checksum "
            << Hex64(checksum) << "\n";

  // --- pin_lookup -------------------------------------------------------
  // Time Find() over a large live set in batches; per-batch mean approximates
  // per-lookup latency well enough for a p50/p99 trajectory.
  std::vector<double> lookup_ns;
  std::size_t working_set = 0;
  std::uint64_t lookup_sink = 0;
  {
    const obs::RunReport::ScopedPhase phase{report, "pin_lookup"};
    workload::FlowStore<workload::PinnedFlow> store;
    working_set = std::min<std::size_t>(trace.events.size(), 200'000);
    std::vector<netsim::FlowKey> keys;
    keys.reserve(working_set);
    for (std::size_t i = 0; i < working_set; ++i) {
      const netsim::FlowKey key =
          workload::WorkloadEngine::KeyFor(trace.events[i]);
      store.Upsert(key).bytes = trace.events[i].bytes;
      keys.push_back(key);
    }
    constexpr std::size_t kBatch = 1024;
    // A large prime stride scatters the probe sequence across shards so the
    // batch isn't a cache-resident linear walk.
    const std::size_t stride = 104'729 % keys.size();
    std::size_t cursor = 0;
    const std::size_t batches = smoke ? 32 : 512;
    for (std::size_t b = 0; b < batches; ++b) {
      const auto start = Clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        cursor += stride;
        if (cursor >= keys.size()) cursor -= keys.size();
        const workload::PinnedFlow* f = store.Find(keys[cursor]);
        if (f != nullptr) lookup_sink += f->bytes;
      }
      lookup_ns.push_back(MsSince(start) * 1e6 / static_cast<double>(kBatch));
    }
  }
  report.AddValue("pin_lookup_set", static_cast<double>(working_set));
  report.AddValue("wall_pin_lookup_p50_ns", util::Median(lookup_ns));
  report.AddValue("wall_pin_lookup_p99_ns",
                  util::Percentile(lookup_ns, 99.0));
  std::cout << "pin_lookup: " << working_set << " live flows, p50 "
            << util::Table::Num(util::Median(lookup_ns), 1) << " ns, p99 "
            << util::Table::Num(util::Percentile(lookup_ns, 99.0), 1)
            << " ns/lookup (sink " << (lookup_sink & 0xFF) << ")\n";

  // --- edge_probe_loop --------------------------------------------------
  // The TM-Edge with no workload attached, over the horizon every replay
  // runs: probes, timeouts, PoP arrivals and replies on the control
  // simulator, which is most of a replay's events.
  std::size_t probe_events = 0;
  double probe_ms = 0.0;
  {
    const obs::RunReport::ScopedPhase phase{report, "edge_probe_loop"};
    auto w = MakeReplayWorld(seed);
    const auto start = Clock::now();
    w->edge->Start();
    w->sim.Run(static_cast<double>(trace.duration_us) / 1e6 + 2.0);
    probe_ms = MsSince(start);
    probe_events = w->sim.ExecutedEvents();
  }
  const double ns_per_event =
      probe_ms * 1e6 /
      static_cast<double>(std::max<std::size_t>(probe_events, 1));
  report.AddValue("des_events", static_cast<double>(probe_events));
  report.AddValue("wall_des_ns_per_event", ns_per_event);
  std::cout << "edge_probe_loop: " << probe_events << " control events, "
            << util::Table::Num(ns_per_event, 1) << " ns/event\n";

  // --- replay: latency-only vs capacity-aware ---------------------------
  // Capacity sized so the aggregate offered load (~2.7 MB/s) fits across the
  // 4 PoPs (4 MB/s total) but overloads any single one: latency-only piles
  // onto the closest PoP, the load-aware policy spreads under threshold.
  const double pop_capacity_bps = smoke ? 2.0e5 : 1.0e6;
  workload::WorkloadEngine::Stats latency_stats;
  {
    const obs::RunReport::ScopedPhase phase{report, "replay_latency_only"};
    const workload::LatencyOnlyPolicy policy;
    latency_stats = Replay(seed, trace, policy, pop_capacity_bps).stats;
  }
  workload::WorkloadEngine::Stats aware_stats;
  double replay_ms = 0.0;
  {
    const obs::RunReport::ScopedPhase phase{report, "replay_load_aware"};
    const workload::LoadAwarePolicy policy{0.85};
    const ReplayOutcome out = Replay(seed, trace, policy, pop_capacity_bps);
    aware_stats = out.stats;
    replay_ms = out.wall_ms;
  }

  report.AddConfig("pop_capacity_bps", pop_capacity_bps);
  report.AddValue("latency_only_started",
                  static_cast<double>(latency_stats.started));
  report.AddValue("latency_only_max_utilization",
                  latency_stats.max_utilization);
  report.AddValue("latency_only_saturated",
                  static_cast<double>(latency_stats.saturated_assignments));
  report.AddValue("load_aware_started",
                  static_cast<double>(aware_stats.started));
  report.AddValue("load_aware_max_utilization", aware_stats.max_utilization);
  report.AddValue("load_aware_saturated",
                  static_cast<double>(aware_stats.saturated_assignments));
  report.AddValue("peak_concurrent",
                  static_cast<double>(aware_stats.peak_concurrent));
  report.AddValue("completed", static_cast<double>(aware_stats.completed));
  report.AddValue("down_picks",
                  static_cast<double>(latency_stats.down_picks +
                                      aware_stats.down_picks));
  report.AddValue("wall_replay_flows_per_s",
                  static_cast<double>(aware_stats.started) /
                      (replay_ms / 1e3));

  std::cout << "replay(latency_only): started " << latency_stats.started
            << ", max PoP utilization "
            << util::Table::Num(latency_stats.max_utilization, 2)
            << ", saturated admissions " << latency_stats.saturated_assignments
            << "\n";
  std::cout << "replay(load_aware):   started " << aware_stats.started
            << ", max PoP utilization "
            << util::Table::Num(aware_stats.max_utilization, 2)
            << ", saturated admissions " << aware_stats.saturated_assignments
            << ", peak concurrent " << aware_stats.peak_concurrent << "\n";

  // --- sharded sweep ----------------------------------------------------
  // Always run every shard count so the report's key set (and every
  // stripped, non-wall value) is independent of --shards; the flag only
  // selects which count becomes the wall_replay_sharded_flows_per_s
  // headline. Canonical stats must be byte-identical across the sweep —
  // that's the determinism contract of DESIGN.md §13, gated below.
  constexpr std::size_t kShardSweep[] = {1, 2, 4, 8};
  std::vector<ShardedOutcome> sharded;
  for (const std::size_t n : kShardSweep) {
    const obs::RunReport::ScopedPhase phase{
        report, "replay_sharded_s" + std::to_string(n)};
    const workload::LoadAwarePolicy policy{0.85};
    sharded.push_back(ReplaySharded(seed, trace, policy, pop_capacity_bps, n));
  }
  bool sharded_identical = true;
  for (const ShardedOutcome& out : sharded) {
    sharded_identical =
        sharded_identical && out.canonical == sharded.front().canonical;
  }
  double headline_sharded_flows_per_s = 0.0;
  const double serial_flows_per_s =
      static_cast<double>(aware_stats.started) / (replay_ms / 1e3);

  util::Table scaling{{"shards", "wall_ms", "flows/s", "vs serial", "epochs"}};
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const ShardedOutcome& out = sharded[i];
    const double flows_per_s =
        static_cast<double>(out.stats.started) / (out.wall_ms / 1e3);
    if (kShardSweep[i] == headline_shards) {
      headline_sharded_flows_per_s = flows_per_s;
    }
    report.AddValue("wall_replay_sharded_s" + std::to_string(kShardSweep[i]) +
                        "_flows_per_s",
                    flows_per_s);
    scaling.AddRow({std::to_string(kShardSweep[i]),
                    util::Table::Num(out.wall_ms, 1),
                    util::Table::Num(flows_per_s, 0),
                    util::Table::Num(flows_per_s / serial_flows_per_s, 2) + "x",
                    std::to_string(out.des.epochs)});
  }
  report.AddValue("sharded_started",
                  static_cast<double>(sharded.front().stats.started));
  report.AddValue("sharded_peak_concurrent",
                  static_cast<double>(sharded.front().stats.peak_concurrent));
  report.AddValue("sharded_down_picks",
                  static_cast<double>(sharded.front().stats.down_picks));
  report.AddValue("sharded_identical", sharded_identical ? 1.0 : 0.0);
  report.AddValue("wall_replay_sharded_flows_per_s",
                  headline_sharded_flows_per_s);
  std::cout << "replay(sharded):      started " << sharded.front().stats.started
            << ", peak concurrent " << sharded.front().stats.peak_concurrent
            << ", canonical stats "
            << (sharded_identical ? "identical" : "DIVERGED")
            << " across shard counts\n";
  scaling.Print(std::cout);

  report.AttachMetrics();
  report.Write(bench::ReportPath("workload_throughput"));

  if (smoke) return 0;
  // Acceptance gates (ISSUE: >= 1M generated events, >= 100k concurrently
  // pinned flows, zero policy-contract breaches).
  int failures = 0;
  if (trace.events.size() < 1'000'000) {
    std::cerr << "FAIL: generated " << trace.events.size()
              << " events (< 1M)\n";
    ++failures;
  }
  if (aware_stats.peak_concurrent < 100'000) {
    std::cerr << "FAIL: peak concurrent pinned " << aware_stats.peak_concurrent
              << " (< 100k)\n";
    ++failures;
  }
  if (latency_stats.down_picks + aware_stats.down_picks != 0) {
    std::cerr << "FAIL: policy picked a down tunnel\n";
    ++failures;
  }
  if (!sharded_identical) {
    std::cerr << "FAIL: sharded canonical stats diverged across shard "
                 "counts\n";
    ++failures;
  }
  if (sharded.front().stats.down_picks != 0) {
    std::cerr << "FAIL: sharded replay picked a down tunnel\n";
    ++failures;
  }
  return failures;
}
