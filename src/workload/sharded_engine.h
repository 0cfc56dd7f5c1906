// Sharded workload replay: the WorkloadEngine's tick loop split across N
// shard-local simulators under deterministic epoch barriers (DESIGN.md §13).
//
// Partitioning: a flow belongs to shard `FlowKeyFingerprint(key) >> (64 -
// log2 N)` — the flow store's own high-bit rule — so a flow is admitted by
// one shard and its pin never migrates. Start() records each trace event's
// shard in one owner byte; a shard's tick (an event on the shard's own
// simulator) walks the epoch's due range and pins the events it owns. A
// pin is one node of the shard's pool, which carries all its release
// needs, linked under its expiry bucket in a ring as long as the longest
// pin lifetime: a shard keeps no flow table, only a count of its live
// pins. Once the pools have reached the shards' peak live counts, an epoch
// allocates nothing.
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
// The per-flow hot path is also simply cheaper than the serial engine's:
// one policy Pick per tick instead of per arrival, no flow-table insert,
// lookup or erase (a pin is one 24-byte pool node), and per-epoch instead
// of per-flow metrics increments — so `--shards 1` is a faster serial
// engine. Every shard runs on the calling thread; more shards partition
// the same work, they do not parallelize it.
#pragma once

#include <cstdint>
#include <memory>
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

}  // namespace painter::workload
