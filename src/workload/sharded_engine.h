// Sharded workload replay: the WorkloadEngine's tick loop split across N
// shard-local simulators under deterministic epoch barriers (DESIGN.md §13).
//
// Partitioning: a flow belongs to shard `FlowKeyFingerprint(key) >> (64 -
// log2 N)` — the flow store's own high-bit rule — so a flow's admission,
// pinning, and expiry all happen on one shard and never migrate. The trace
// is split into per-shard index lists once at Start(); each shard walks its
// slice with a private cursor and pins a flow by filing one entry, which
// carries all its release needs, under a private expiry bucket: a shard
// keeps no flow table, only a count of its live pins. All of it runs inside
// tick events on the shard's own simulator.
//
// The epoch is the admission tick. The serial engine already snapshots
// tunnel views once per tick; the sharded engine moves the *load* reads to
// the same boundary, which is the one semantic change versus the serial
// WorkloadEngine: the destination policy is consulted once per tick against
// the tick-start LoadTracker state, and every arrival in that tick shares
// the decision, instead of each arrival seeing the loads updated by the
// arrivals admitted just before it. Decisions become pure functions of
// (epoch snapshot, trace) — independent of how flows are spread over
// shards — which is what makes the result bit-identical at any shard count.
// Load shaping is unaffected in practice: a tick is 100 ms and single-digit
// arrivals, far finer than the diurnal swings the threshold reacts to.
//
// Cross-shard effects: shards never touch the shared LoadTracker. The merge
// applies an epoch's assigns while it walks the global due range of the
// trace (exactly the flows the shards admitted that tick), and k-way-merges
// the shards' release outboxes by (expiry bucket, trace index) — a
// canonical order no shard count can perturb — so even the floating-point
// folds (offered bytes/s, high-water utilization) come out bit-identical.
// The same walk drives EngineConfig::on_arrival in global trace order, with
// control-shard state (DNS TTL versions, advertisement rounds) frozen at
// the boundary.
//
// The per-flow hot path is also simply cheaper than the serial engine's:
// one policy Pick per tick instead of per arrival, no flow-table insert,
// lookup or erase (a pin is one 16-byte bucket entry), and per-epoch instead
// of per-flow metrics increments — so `--shards 1` is a faster serial
// engine. Every shard runs on the calling thread; more shards partition
// the same work, they do not parallelize it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/shard.h"
#include "netsim/sim.h"
#include "tm/tm_edge.h"
#include "workload/engine.h"
#include "workload/load.h"
#include "workload/trace.h"

namespace painter::workload {

struct ShardedReplayConfig {
  // Power of two in [1, 256]. 1 = the serial semantics of this engine (NOT
  // byte-identical to WorkloadEngine: see the snapshot-decision note above).
  std::size_t shards = 1;
  // Tick/duration/policy-hook configuration, shared with the serial engine.
  // `engine.timeseries` registers the same occupancy/utilization samplers
  // the serial engine registers (shard-count-invariant values).
  EngineConfig engine;
  // Optional des.shard<i>.* queue-depth / epoch-skew series. The key set
  // depends on the shard count by construction, so never attach a registry
  // that is byte-compared across shard counts.
  obs::TimeseriesRegistry* shard_timeseries = nullptr;
};

// Drives a trace through a TM-Edge exactly like WorkloadEngine, but over
// `shards` shard-local simulators synchronized on the control simulator's
// tick grid. The edge, tunnels, faults, and samplers stay on `control`.
class ShardedWorkloadReplay {
 public:
  using Stats = WorkloadEngine::Stats;

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

 private:
  // One expiry's load delta. `bucket` first in the merge order: a final
  // drain releases several buckets in one epoch and bucket-major order is
  // the serial engine's.
  struct ReleaseDelta {
    std::uint32_t bucket;
    std::uint32_t trace_idx;
    std::int32_t pop;
    double rate_bps;
  };
  // A pinned flow, filed under its expiry bucket: the only record of the
  // pin, and all its release needs.
  struct BucketEntry {
    std::uint32_t trace_idx;
    std::int32_t pop;
    double rate_bps;
  };

  struct Shard {
    std::vector<std::uint32_t> events;  // indices into trace, trace order
    std::size_t cursor = 0;
    std::size_t tick_index = 0;
    std::vector<std::vector<BucketEntry>> expiry_buckets;
    // Epoch outbox: written during the shard's tick, drained at merge.
    std::vector<ReleaseDelta> releases;
    std::size_t live = 0;             // pins admitted and not yet drained
    std::size_t post_admit_size = 0;  // `live` after admissions
    std::uint64_t max_tick_skew_us = 0;
  };

  void ShardTick(std::size_t s);
  void DrainBucket(Shard& sh, std::size_t bucket);
  void Prepare(std::uint64_t epoch, netsim::SimTime boundary_us);
  void Merge(std::uint64_t epoch, netsim::SimTime boundary_us);
  [[nodiscard]] std::size_t BucketOf(std::uint64_t expiry_us) const;

  netsim::Simulator* control_;
  netsim::ShardedSimulator des_;
  tm::TmEdge* edge_;
  std::vector<int> tunnel_pop_;
  LoadTracker* load_;
  const DestinationPolicy* policy_;
  const Trace* trace_;
  ShardedReplayConfig config_;

  std::vector<Shard> shards_;
  netsim::SimTime tick_us_ = 0;
  netsim::SimTime start_us_ = 0;
  std::size_t bucket_count_ = 0;
  bool started_ = false;

  // The epoch's decision: written in Prepare, read-only in the shard ticks
  // and the merge.
  std::vector<TunnelView> epoch_views_;
  int epoch_pick_ = -1;
  std::int32_t epoch_pop_ = -1;
  bool epoch_admit_ = false;
  bool epoch_final_ = false;  // this tick: no admissions, drain everything

  // Bookkeeping the shard ticks never touch.
  std::size_t global_cursor_ = 0;  // next trace event not yet due
  bool final_requested_ = false;
  bool ticks_stopped_ = false;
  Stats stats_;
};

}  // namespace painter::workload
