// Workload replay: drives a flow trace through a TM-Edge at scale — the
// reproduction's one replay engine (DESIGN.md §10, §13).
//
// Workload flows get no per-packet dynamics (a million flows a day at
// per-packet granularity would drown the DES). The replay advances in fixed
// ticks on an absolute integer-µs grid anchored at Start() — tick k at
// exactly start + (k+1) * tick_us, re-derived from k, never accumulated —
// and per tick:
//
//   1. decides once: snapshots the TM-Edge's tunnel views (probed-up state +
//      RTT EWMA) and asks the DestinationPolicy for one destination against
//      the LoadTracker state at the tick boundary. Every arrival due by the
//      tick (`start_us <= now_us` on the integer clock, so an arrival
//      exactly on a boundary is admitted in that tick) shares that Pick;
//   2. pins those arrivals: a pin never changes destination (§3.2), adds
//      its service rate to its PoP's load, and is filed under its expiry
//      bucket (expiry_us / tick_us, the same arithmetic progression);
//   3. releases the tick's expiry bucket — a bucket drain, never a scan.
//
// Decisions are pure functions of (tick snapshot, trace), independent of
// how flows are spread over shards, which is what makes the result
// bit-identical at any shard count. Stats::max_tick_skew_us watermarks
// |actual - expected| tick time and stays 0. The replay draws no
// randomness and only reads edge state, so a run is a pure function of
// (trace, world, config) and rides along fault injection without
// perturbing the TM-Edge's event sequence. Optionally (place_edge_flows)
// it installs itself as the TM-Edge's flow placer, so scripted per-packet
// flows get the same capacity-aware destination selection.
//
// Partitioning: a flow belongs to shard `FlowKeyFingerprint(KeyFor(event))
// >> (64 - log2 N)` — the flow store's own high-bit rule — so a flow is
// admitted by one shard and its pin never migrates. Start() records each
// trace event's shard in one owner byte; a shard's tick (an event on the
// shard's own simulator) walks the epoch's due range and pins the events
// it owns. A pin is one node of the shard's pool, which carries all its
// release needs, linked under its expiry bucket in a ring as long as the
// longest pin lifetime: a shard keeps no flow table, only a count of its
// live pins. Once the pools have reached the shards' peak live counts, an
// epoch allocates nothing.
//
// Cross-shard effects: shards never touch the shared LoadTracker. The merge
// applies an epoch's assigns while it walks the global due range of the
// trace (exactly the flows the shards admitted that tick), then releases
// the tick's expiry bucket from every shard, walking the shards' chains
// together by trace index (bucket by bucket in the final drain) — a
// canonical (expiry bucket, trace index) order no shard count can perturb
// — so even the floating-point folds (offered bytes/s, high-water
// utilization) come out bit-identical.
// The same walk drives EngineConfig::on_arrival in global trace order, with
// control-shard state (DNS TTL versions, advertisement rounds) frozen at
// the boundary.
//
// Every shard runs on the calling thread; more shards partition the same
// work, they do not parallelize it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/packet.h"
#include "netsim/shard.h"
#include "netsim/sim.h"
#include "tm/tm_edge.h"
#include "workload/engine.h"
#include "workload/load.h"
#include "workload/trace.h"

namespace painter::workload {

struct ShardedReplayConfig {
  // Power of two in [1, 256]; anything else throws (ShardedSimulator). The
  // result is identical at every count.
  std::size_t shards = 1;
  // Tick/duration/policy-hook configuration. `engine.timeseries` registers
  // the occupancy/utilization samplers (shard-count-invariant values).
  EngineConfig engine;
  // Optional des.shard<i>.* queue-depth / epoch-skew series. The key set
  // depends on the shard count by construction, so never attach a registry
  // that is byte-compared across shard counts.
  obs::TimeseriesRegistry* shard_timeseries = nullptr;
};

// Drives a trace through a TM-Edge over `shards` shard-local simulators
// synchronized on the control simulator's tick grid. The edge, tunnels,
// faults, and samplers stay on `control`.
class ShardedWorkloadReplay {
 public:
  struct Stats {
    std::uint64_t arrivals = 0;   // trace events consumed
    std::uint64_t started = 0;    // pinned successfully
    std::uint64_t rejected = 0;   // no usable tunnel at admission
    std::uint64_t completed = 0;  // expired and released
    std::uint64_t peak_concurrent = 0;
    // Policy-contract violations: picks of a tunnel whose view was unusable.
    // Must stay 0; the chaos-under-load sweep asserts it.
    std::uint64_t down_picks = 0;
    // Admissions onto a PoP already at/over the load-aware threshold-like
    // utilization of 1.0 (i.e. saturated at admission time).
    std::uint64_t saturated_assignments = 0;
    double bytes_offered = 0.0;
    double max_utilization = 0.0;  // high-water mark across PoPs and ticks
    // Largest |tick fire time - its absolute-grid slot| seen, in µs. Always
    // 0 on the ScheduleAtUs grid; nonzero means tick scheduling drifted off
    // the expiry-bucket grid. Pinned to 0 by tests/timeline_test.cc.
    std::uint64_t max_tick_skew_us = 0;
  };

  // `tunnel_pop[i]` maps the edge's tunnel i to a LoadTracker PoP index.
  // All references must outlive the replay; the trace must stay alive and
  // unmodified while it runs. Throws std::invalid_argument on a config
  // ValidateEngineConfig rejects, a tick below 1 µs, or a shard count
  // ShardedSimulator rejects.
  ShardedWorkloadReplay(netsim::Simulator& control, tm::TmEdge& edge,
                        std::vector<int> tunnel_pop, LoadTracker& load,
                        const DestinationPolicy& policy, const Trace& trace,
                        ShardedReplayConfig config = {});
  // The replay keeps a pointer to `policy`; a temporary would dangle after
  // the constructor's full-expression ends (Pick() through the destroyed
  // object is a pure-virtual call in unoptimized builds).
  ShardedWorkloadReplay(netsim::Simulator&, tm::TmEdge&, std::vector<int>,
                        LoadTracker&, const DestinationPolicy&&, const Trace&,
                        ShardedReplayConfig = {}) = delete;

  // Partitions the trace, schedules every shard's tick loop, and (when
  // configured) installs the edge flow placer and telemetry samplers.
  // Anchors the epoch grid at the control clock's current time; call Run()
  // without running the control simulator in between.
  void Start();

  // Runs epochs until the control clock reaches `until_s` / `until_us`.
  // Replaces Simulator::Run for the attached components: control events,
  // shard ticks, and barrier merges all advance in lock step. Callable
  // repeatedly.
  void Run(double until_s) { RunUs(netsim::UsFromSeconds(until_s)); }
  void RunUs(netsim::SimTime until_us);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  // Pinned flows whose expiry bucket has not drained yet.
  [[nodiscard]] std::size_t Concurrent() const;
  [[nodiscard]] std::size_t ShardCount() const { return des_.ShardCount(); }
  [[nodiscard]] const netsim::ShardedSimulator& des() const { return des_; }

  // Canonical text form of everything the replay computed: stats,
  // round-trip-exact ("%.17g") load-tracker gauges, per-shard flow counts
  // summed. Two runs are behaviourally identical iff their canonical stats
  // are byte-identical; the property suite diffs this across shard counts.
  [[nodiscard]] std::string CanonicalStats() const;

  // The 5-tuple a trace event is pinned under; injective in (ug, seq) below
  // kTraceUgLimit and kTraceSeqLimit, which LoadTrace enforces.
  [[nodiscard]] static netsim::FlowKey KeyFor(const FlowEvent& event);

 private:
  static constexpr std::uint32_t kNoPin = ~std::uint32_t{0};
  // A pinned flow: a fixed node in its shard's pool, linked in admission
  // order under its expiry bucket. The only record of the pin, and all its
  // release needs. Released nodes are reused.
  struct Pin {
    double rate_bps;
    std::uint32_t trace_idx;
    std::int32_t pop;
    std::uint32_t next;  // next pin of the bucket, or of the free list
  };
  // One expiry bucket of a shard's ring: its pins, oldest first.
  struct Bucket {
    std::uint32_t head = kNoPin;
    std::uint32_t tail = kNoPin;
  };

  // Pool nodes come kPinsPerChunk at a time and never move, so the pool
  // grows without copying or leaving the old block behind.
  static constexpr std::uint32_t kPinsPerChunk = 4096;

  struct Shard {
    std::vector<std::unique_ptr<Pin[]>> pool;
    std::uint32_t pool_size = 0;      // nodes ever handed out
    std::uint32_t free_pin = kNoPin;  // released pool nodes, a stack
    // ring[b % ring_size_] holds absolute expiry bucket b (DESIGN.md §13).
    std::vector<Bucket> ring;
    std::size_t live = 0;  // pins admitted and not yet released
    std::uint64_t max_tick_skew_us = 0;

    [[nodiscard]] Pin& PinAt(std::uint32_t node) {
      return pool[node / kPinsPerChunk][node % kPinsPerChunk];
    }
  };

  void ShardTick(std::size_t s);
  void FilePin(Shard& sh, std::uint32_t trace_idx, const FlowTiming& timing);
  // Releases expiry bucket `bucket` of every shard into the load tracker in
  // trace order and returns the count.
  std::uint64_t ReleaseBucket(std::size_t bucket);
  void Prepare(std::uint64_t epoch, netsim::SimTime boundary_us);
  void Merge(std::uint64_t epoch, netsim::SimTime boundary_us);
  [[nodiscard]] std::size_t BucketOf(std::uint64_t expiry_us) const;
  // Ring slot of absolute bucket `bucket` in [tick_index_, tick_index_ +
  // ring_size_): a compare in place of a division.
  [[nodiscard]] std::size_t RingSlot(std::size_t bucket) const {
    const std::size_t slot = tick_slot_ + (bucket - tick_index_);
    return slot >= ring_size_ ? slot - ring_size_ : slot;
  }

  netsim::Simulator* control_;
  netsim::ShardedSimulator des_;
  tm::TmEdge* edge_;
  std::vector<int> tunnel_pop_;
  LoadTracker* load_;
  const DestinationPolicy* policy_;
  const Trace* trace_;
  ShardedReplayConfig config_;

  std::vector<Shard> shards_;
  // owner_[i]: the shard of trace event i (the fingerprint rule).
  std::vector<std::uint8_t> owner_;
  netsim::SimTime tick_us_ = 0;
  netsim::SimTime start_us_ = 0;
  std::size_t bucket_count_ = 0;
  std::size_t ring_size_ = 0;
  bool started_ = false;
  // The tick of the current epoch: read by the shard ticks, advanced by the
  // merge once it has released that tick's bucket.
  std::size_t tick_index_ = 0;
  std::size_t tick_slot_ = 0;  // tick_index_ % ring_size_

  // The epoch's decision: written in Prepare, read-only in the shard ticks
  // and the merge. [global_cursor_, due_end_) is the epoch's arrivals; the
  // merge moves global_cursor_ on.
  std::size_t global_cursor_ = 0;  // next trace event not yet due
  std::size_t due_end_ = 0;
  int epoch_pick_ = -1;
  std::int32_t epoch_pop_ = -1;
  bool epoch_admit_ = false;
  bool epoch_final_ = false;  // this tick: no admissions, drain everything

  // The tunnel views every Pick reads, reused (Prepare and the edge flow
  // placer).
  std::vector<TunnelView> views_;

  // Bookkeeping the shard ticks never touch.
  bool final_requested_ = false;
  bool ticks_stopped_ = false;
  Stats stats_;
};

// The serial engine's name, kept while perfbench/src/diurnal_replay.cc
// spells KeyFor through it.
using WorkloadEngine = ShardedWorkloadReplay;

}  // namespace painter::workload
