// Workload property suite: the determinism and safety contracts the ISSUE
// pins down.
//
//  - Trace byte-identity: the same (seed, profiles) serialize to identical
//    bytes on every run, and survive a save/load round-trip bit-for-bit.
//  - Untrusted trace input: a forged event count, events out of canonical
//    order, a repeated or out-of-range (ug, seq), every truncation and
//    random byte flips either load as a canonical-order trace of unique
//    in-range keys or throw std::runtime_error — nothing else.
//  - Store correctness: the sharded open-addressing store agrees with a
//    std::unordered_map reference model under randomized insert / erase /
//    batched-expiry churn that forces rehashes, and a pinned value written
//    at insertion never changes while the flow lives (pinning immutability,
//    §3.2).
//  - Policy safety: neither policy ever returns a tunnel whose view is
//    down, across randomized view sets and load states.
//  - Engine determinism: two runs of the same replay produce identical
//    stats.
//  - Chaos under load: random fault plans with the workload engine driving
//    traffic keep all four §5.2.3 invariants and the policy contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/sim.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"
#include "util/hashmix.h"
#include "util/rng.h"
#include "workload/chaos_load.h"
#include "workload/engine.h"
#include "workload/flow_store.h"
#include "workload/load.h"
#include "workload/trace.h"

namespace painter::workload {
namespace {

TEST(TraceProperty, ByteIdenticalAcrossReruns) {
  const auto profiles = SyntheticUgProfiles(48, 21);
  TraceConfig tc;
  tc.seed = 21;
  tc.duration_s = 180.0;
  tc.mean_flows_per_s = 60.0;

  const std::string one = SerializeTrace(GenerateTrace(tc, profiles));
  EXPECT_EQ(one, SerializeTrace(GenerateTrace(tc, profiles)));
  EXPECT_GT(one.size(), 32u);  // header + events, not an empty trace

  // Different seeds must diverge (the identity is not vacuous).
  tc.seed = 22;
  EXPECT_NE(one, SerializeTrace(GenerateTrace(tc, profiles)));
}

TEST(TraceProperty, SaveLoadRoundTripsBitForBit) {
  TraceConfig tc;
  tc.seed = 33;
  tc.duration_s = 60.0;
  tc.mean_flows_per_s = 80.0;
  const Trace trace = GenerateTrace(tc, SyntheticUgProfiles(16, 33));
  ASSERT_GT(trace.events.size(), 0u);

  std::stringstream buf;
  SaveTrace(trace, buf);
  const Trace loaded = LoadTrace(buf);
  EXPECT_EQ(loaded.seed, trace.seed);
  EXPECT_EQ(loaded.duration_us, trace.duration_us);
  ASSERT_EQ(loaded.events.size(), trace.events.size());
  EXPECT_EQ(loaded.events, trace.events);
  EXPECT_EQ(SerializeTrace(loaded), SerializeTrace(trace));
  EXPECT_EQ(TraceChecksum(loaded), TraceChecksum(trace));

  std::stringstream bad{"not a trace"};
  EXPECT_THROW((void)LoadTrace(bad), std::runtime_error);
}

// A small serialized trace: a few dozen events, so the mutation loop below
// can afford every truncation point.
Trace TinyTrace() {
  TraceConfig tc;
  tc.seed = 44;
  tc.duration_s = 10.0;
  tc.mean_flows_per_s = 4.0;
  return GenerateTrace(tc, SyntheticUgProfiles(6, 44));
}

// PWLT1 header layout: magic[8], seed u64, duration_us u64, count u64.
constexpr std::size_t kCountOffset = 24;

void PutU64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>(v >> (8 * i));
  }
}

// True iff `input` loads as a trace strictly increasing in (start_us, ug,
// seq), with every (ug, seq) unique and inside the flow-key range, or is
// rejected with std::runtime_error. Any other exception escapes and fails
// the calling test.
bool LoadsCanonicalOrRejects(const std::string& input) {
  std::stringstream buf{input};
  Trace trace;
  try {
    trace = LoadTrace(buf);
  } catch (const std::runtime_error&) {
    return true;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> keys;
  for (const FlowEvent& e : trace.events) {
    if (e.ug >= kTraceUgLimit || e.seq >= kTraceSeqLimit) return false;
    keys.emplace_back(e.ug, e.seq);
  }
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) == keys.end() &&
         std::adjacent_find(trace.events.begin(), trace.events.end(),
                            [](const FlowEvent& a, const FlowEvent& b) {
                              return std::tie(a.start_us, a.ug, a.seq) >=
                                     std::tie(b.start_us, b.ug, b.seq);
                            }) == trace.events.end();
}

// Serializes `events` (already in canonical order) and loads them back.
Trace LoadEvents(std::vector<FlowEvent> events) {
  const Trace trace{
      .seed = 1, .duration_us = 10'000'000, .events = std::move(events)};
  std::stringstream buf{SerializeTrace(trace)};
  return LoadTrace(buf);
}

TEST(TraceProperty, LoadRejectsForgedEventCount) {
  // A header-only stream claiming 2^62 or 2^40 events: the loader must not
  // size anything from the claim before reading the events.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 40}) {
    std::string bytes =
        SerializeTrace(Trace{.seed = 1, .duration_us = 1, .events = {}});
    PutU64(bytes, kCountOffset, count);
    std::stringstream buf{bytes};
    EXPECT_THROW((void)LoadTrace(buf), std::runtime_error) << count;
  }
}

TEST(TraceProperty, LoadRejectsEventsOutOfCanonicalOrder) {
  Trace trace = TinyTrace();
  ASSERT_GE(trace.events.size(), 4u);
  Trace swapped = trace;
  std::swap(swapped.events[1], swapped.events[2]);
  std::stringstream swapped_buf{SerializeTrace(swapped)};
  EXPECT_THROW((void)LoadTrace(swapped_buf), std::runtime_error);

  // A repeated (start_us, ug, seq) is not strictly increasing either, even
  // with a different size.
  Trace repeated = trace;
  repeated.events[2] = repeated.events[1];
  repeated.events[2].bytes += 1;
  std::stringstream repeated_buf{SerializeTrace(repeated)};
  EXPECT_THROW((void)LoadTrace(repeated_buf), std::runtime_error);
}

// Canonical order alone lets a UG's (ug, seq) pair repeat at a later start,
// which would re-pin a live flow under the same key.
TEST(TraceProperty, LoadRejectsRepeatedFlowKey) {
  EXPECT_THROW(
      (void)LoadEvents({FlowEvent{.start_us = 10, .ug = 7, .seq = 3},
                        FlowEvent{.start_us = 20, .ug = 7, .seq = 3}}),
      std::runtime_error);
  // A seq that goes backwards can collide with a later one just the same.
  EXPECT_THROW(
      (void)LoadEvents({FlowEvent{.start_us = 10, .ug = 7, .seq = 3},
                        FlowEvent{.start_us = 20, .ug = 7, .seq = 2}}),
      std::runtime_error);
  // Other UGs and increasing seqs interleave freely.
  const Trace ok =
      LoadEvents({FlowEvent{.start_us = 10, .ug = 7, .seq = 3},
                  FlowEvent{.start_us = 10, .ug = 8, .seq = 3},
                  FlowEvent{.start_us = 20, .ug = 7, .seq = 4},
                  FlowEvent{.start_us = 30, .ug = 8, .seq = 9}});
  EXPECT_EQ(ok.events.size(), 4u);
}

// The pin key keeps 24 bits of ug and 28 of seq: anything wider would alias.
TEST(TraceProperty, LoadRejectsIdsBeyondTheFlowKey) {
  EXPECT_THROW(
      (void)LoadEvents({FlowEvent{.start_us = 10, .ug = kTraceUgLimit}}),
      std::runtime_error);
  EXPECT_THROW(
      (void)LoadEvents({FlowEvent{.start_us = 10, .seq = kTraceSeqLimit}}),
      std::runtime_error);
  const Trace edge = LoadEvents({FlowEvent{
      .start_us = 10, .ug = kTraceUgLimit - 1, .seq = kTraceSeqLimit - 1}});
  EXPECT_EQ(edge.events.size(), 1u);
}

TEST(TraceProperty, LoadSurvivesTruncationAndByteFlips) {
  const std::string bytes = SerializeTrace(TinyTrace());
  ASSERT_GT(bytes.size(), kCountOffset + 8 + 4 * 24);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::stringstream buf{bytes.substr(0, n)};
    EXPECT_THROW((void)LoadTrace(buf), std::runtime_error) << "length " << n;
  }
  util::Rng rng{util::MixSeed(44, 0xF11Bu)};
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = bytes;
    const std::size_t flips = 1 + rng.Index(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.Index(mutated.size())] ^=
          static_cast<char>(1 + rng.Index(255));
    }
    EXPECT_TRUE(LoadsCanonicalOrRejects(mutated)) << "round " << round;
  }
}

netsim::FlowKey RandomKey(util::Rng& rng, std::uint32_t space) {
  return netsim::FlowKey{
      .src_ip = static_cast<netsim::IpAddr>(rng.Index(space)),
      .dst_ip = 0x08080808u,
      .src_port = static_cast<netsim::Port>(rng.Index(4096)),
      .dst_port = 443,
      .proto = 6};
}

// Randomized differential test against std::unordered_map, with a small
// initial capacity so growth and tombstone-compaction rehashes both fire.
TEST(FlowStoreProperty, AgreesWithReferenceModelUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng{util::MixSeed(seed, 0xF10Fu)};
    FlowStoreConfig cfg;
    cfg.shard_bits = 2;
    cfg.min_shard_capacity = 8;
    FlowStore<std::uint64_t> store{cfg};
    std::unordered_map<netsim::FlowKey, std::uint64_t> ref;

    for (int op = 0; op < 6000; ++op) {
      const double r = rng.Uniform01();
      if (r < 0.6) {
        const netsim::FlowKey key = RandomKey(rng, 2000);
        // Value written at first insertion; identical on both sides and —
        // pinning immutability — never rewritten afterwards.
        const std::uint64_t pinned = util::MixSeed(seed, op);
        std::uint64_t& slot = store.Upsert(key);
        auto [it, inserted] = ref.emplace(key, pinned);
        if (inserted) {
          EXPECT_EQ(slot, 0u);  // fresh entry is value-initialized
          slot = pinned;
        } else {
          EXPECT_EQ(slot, it->second);  // the pin survived the churn
        }
      } else if (r < 0.9) {
        const netsim::FlowKey key = RandomKey(rng, 2000);
        EXPECT_EQ(store.Erase(key), ref.erase(key) > 0);
      } else {
        // Batched expiry of a pseudo-random stripe of the key space.
        const std::uint32_t stripe = static_cast<std::uint32_t>(rng.Index(7));
        const auto pred = [stripe](const netsim::FlowKey& k) {
          return k.src_ip % 7 == stripe;
        };
        const std::size_t removed = store.EraseIf(
            [&](const netsim::FlowKey& k, const std::uint64_t&) {
              return pred(k);
            });
        std::size_t ref_removed = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if (pred(it->first)) {
            it = ref.erase(it);
            ++ref_removed;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(removed, ref_removed);
      }
      ASSERT_EQ(store.size(), ref.size());
    }

    // Full final audit: every surviving pin is intact, SortedItems is the
    // reference content in FlowKey order.
    EXPECT_GT(store.Rehashes(), 0u);
    const auto items = store.SortedItems();
    ASSERT_EQ(items.size(), ref.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) EXPECT_LT(items[i - 1].first, items[i].first);
      const auto it = ref.find(items[i].first);
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(items[i].second, it->second);
    }
  }
}

TEST(PolicyProperty, NeverPicksADownTunnel) {
  const LatencyOnlyPolicy latency;
  const LoadAwarePolicy aware{0.85};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng{util::MixSeed(seed, 0xD0DEu)};
    const std::size_t pops = 1 + rng.Index(4);
    LoadTracker load{std::vector<double>(pops, 1000.0)};
    for (std::size_t p = 0; p < pops; ++p) {
      load.OnAssign(static_cast<int>(p), rng.Uniform(0.0, 1500.0));
    }
    std::vector<TunnelView> views;
    const std::size_t n = rng.Index(8);  // possibly empty
    for (std::size_t i = 0; i < n; ++i) {
      views.push_back(TunnelView{
          .tunnel = static_cast<int>(i),
          .pop = static_cast<int>(rng.Index(pops)),
          .usable = rng.Uniform01() < 0.6,
          .rtt_ms = rng.Uniform(1.0, 50.0)});
    }
    for (const DestinationPolicy* policy :
         {static_cast<const DestinationPolicy*>(&latency),
          static_cast<const DestinationPolicy*>(&aware)}) {
      const int pick = policy->Pick(views, load);
      bool any_usable = false;
      for (const TunnelView& v : views) any_usable = any_usable || v.usable;
      if (pick < 0) {
        EXPECT_FALSE(any_usable) << policy->name() << " seed " << seed;
      } else {
        ASSERT_LT(static_cast<std::size_t>(pick), views.size());
        EXPECT_TRUE(views[static_cast<std::size_t>(pick)].usable)
            << policy->name() << " seed " << seed;
      }
    }
  }
}

WorkloadEngine::Stats RunReplayOnce(std::uint64_t seed) {
  netsim::Simulator sim;
  tm::TmPop pop_a{sim, "A", {0x02020202u}};
  tm::TmPop pop_b{sim, "B", {0x03030303u}};
  std::vector<tm::TunnelConfig> tunnels;
  tunnels.push_back(tm::TunnelConfig{.name = "t0",
                                     .remote_ip = 0x0a0a0a00u,
                                     .path = netsim::PathModel::Fixed(0.012),
                                     .pop = &pop_a});
  tunnels.push_back(tm::TunnelConfig{.name = "t1",
                                     .remote_ip = 0x0a0a0a01u,
                                     .path = netsim::PathModel::Fixed(0.018),
                                     .pop = &pop_b});
  tm::TmEdge edge{sim, {.seed = seed}, std::move(tunnels)};

  TraceConfig tc;
  tc.seed = seed;
  tc.duration_s = 20.0;
  tc.mean_flows_per_s = 25.0;
  tc.size_max_bytes = 1.0e7;
  const Trace trace = GenerateTrace(tc, SyntheticUgProfiles(12, seed));

  LoadTracker load{{2.0e5, 2.0e5}};
  const LoadAwarePolicy policy{0.85};
  EngineConfig ecfg;
  ecfg.flow_bytes_per_s = 20.0e3;
  ecfg.min_duration_s = 1.0;
  ecfg.max_duration_s = 8.0;
  WorkloadEngine engine{sim, edge, {0, 1}, load, policy, trace, ecfg};
  edge.Start();
  engine.Start();
  sim.Run(tc.duration_s + 15.0);
  return engine.stats();
}

TEST(EngineProperty, ReplayIsSeedDeterministic) {
  for (std::uint64_t seed : {2ULL, 9ULL}) {
    const WorkloadEngine::Stats a = RunReplayOnce(seed);
    const WorkloadEngine::Stats b = RunReplayOnce(seed);
    EXPECT_GT(a.started, 0u);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.started, b.started);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.peak_concurrent, b.peak_concurrent);
    EXPECT_EQ(a.down_picks, 0u);
    EXPECT_EQ(a.bytes_offered, b.bytes_offered);
    EXPECT_EQ(a.max_utilization, b.max_utilization);
  }
}

// Random fault plans with the workload engine attached: the four §5.2.3
// invariants and the policy contract must hold, and the run must actually
// exercise load (flows admitted, trace non-empty).
TEST(ChaosLoadProperty, InvariantsHoldUnderWorkload) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ChaosLoadResult r = RunChaosUnderLoad(seed);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": "
                        << (r.invariants.violations.empty()
                                ? (r.load_violations.empty()
                                       ? ""
                                       : r.load_violations.front())
                                : r.invariants.violations.front());
    EXPECT_GT(r.trace_events, 0u);
    EXPECT_GT(r.load_stats.started, 0u);
    EXPECT_EQ(r.load_stats.down_picks, 0u);
    EXPECT_GT(r.invariants.checks, 0u);
  }
}

// Same chaos seed twice: byte-identical outcome (the attach hook must not
// perturb determinism).
TEST(ChaosLoadProperty, RunsAreSeedDeterministic) {
  const ChaosLoadResult a = RunChaosUnderLoad(3);
  const ChaosLoadResult b = RunChaosUnderLoad(3);
  EXPECT_EQ(a.load_stats.started, b.load_stats.started);
  EXPECT_EQ(a.load_stats.completed, b.load_stats.completed);
  EXPECT_EQ(a.load_stats.peak_concurrent, b.load_stats.peak_concurrent);
  EXPECT_EQ(a.load_stats.max_utilization, b.load_stats.max_utilization);
  EXPECT_EQ(a.invariants.checks, b.invariants.checks);
  EXPECT_EQ(a.invariants.violations, b.invariants.violations);
}

}  // namespace
}  // namespace painter::workload
