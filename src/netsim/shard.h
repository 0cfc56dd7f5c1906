// Sharded discrete-event simulation with deterministic epoch barriers
// (DESIGN.md §13).
//
// The single-Simulator timeline (§11) puts every component on one integer-µs
// event heap. This layer splits the timeline into one *control* simulator
// plus N *shard* simulators, each with its own event heap, synchronized in
// lock-step epochs (the mcsim_public epoch-barrier pattern):
//
//   per epoch k with boundary b_k = start + (k+1) * epoch_us:
//     1. the control simulator runs to b_k (probes, faults, TTL refresh,
//        advertisement rounds — everything that is inherently global);
//     2. `prepare` hook: publish read-only snapshots of control state to
//        the shards;
//     3. every shard simulator runs its own heap to b_k, in shard order, on
//        the calling thread;
//     4. `merge` hook: apply the shards' effects to control state in
//        canonical order.
//
// Sharding is a data partition, not a thread partition: everything runs on
// the thread that calls Run(). Threads were measured and lost: at one tick
// per epoch a barrier carries ~31 arrivals of shard work, less than a
// condvar round trip to the workers costs, and coarser epochs would change
// the once-per-tick decision the replay's identity rests on.
//
// Determinism contract: shards may only read control state between
// `prepare` and `merge` (it is frozen then), and may only write shard-local
// state; all cross-shard effects flow through `merge`, which must apply
// messages in an order independent of the shard count (the workload replay
// walks the global trace order). Under that contract the run is a pure
// function of (events, hooks) — bit-identical at any shard count.
//
// Epoch length: the epoch is the minimum cross-shard reaction latency — a
// write merged at b_k is first visible to picks prepared at b_k (and used
// in (b_k, b_{k+1}]). The workload replay uses its admission tick as the
// epoch, since tunnel views and load were already snapshotted per tick in
// the serial engine; anything coarser would change semantics, anything
// finer would add barriers without adding information.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "netsim/sim.h"

namespace painter::obs {
class TimeseriesRegistry;
}  // namespace painter::obs

namespace painter::netsim {

class ShardedSimulator {
 public:
  struct Config {
    std::size_t shards = 1;  // power of two in [1, 256]
    SimTime epoch_us = 0;    // barrier period; must be > 0
    // Optional per-shard queue-depth / epoch-skew series (des.shard<i>.*,
    // des.shard.*), appended at epoch barriers. Do NOT attach a registry
    // whose export is byte-compared across shard counts: the per-shard key
    // set depends on N by construction. Null records nothing.
    obs::TimeseriesRegistry* timeseries = nullptr;
  };

  struct Stats {
    std::uint64_t epochs = 0;
    // Sum over epochs of max-min per-shard events executed in the epoch: a
    // deterministic imbalance measure (wall-clock skew is hardware noise).
    std::uint64_t total_epoch_skew_events = 0;
    std::uint64_t max_epoch_skew_events = 0;
    std::uint64_t max_queue_depth = 0;  // across shards and barriers
    std::vector<std::uint64_t> shard_executed_events;  // per shard
  };

  // `boundary_us` is b_k.
  using Hook = std::function<void(std::uint64_t epoch, SimTime boundary_us)>;

  // `control` must outlive this object. Throws std::invalid_argument on a
  // non-power-of-two shard count or a zero epoch.
  ShardedSimulator(Simulator& control, const Config& config);

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] Simulator& control() { return *control_; }
  [[nodiscard]] Simulator& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] std::size_t ShardCount() const { return shards_.size(); }
  [[nodiscard]] SimTime EpochUs() const { return config_.epoch_us; }

  // Runs epochs until the control clock reaches `until_us` (the final
  // partial epoch is run to `until_us` exactly). Callable repeatedly; the
  // epoch grid stays anchored at the first call's control time. Either hook
  // may be null.
  void Run(SimTime until_us, const Hook& prepare, const Hook& merge);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  // The shard an entity belongs to: the top log2(shards) bits of its
  // 64-bit fingerprint — the flow store's own sharding rule, so one hash
  // partitions both the engine and its pinning table consistently.
  [[nodiscard]] std::size_t ShardOf(std::uint64_t fingerprint) const {
    return shard_shift_ >= 64 ? 0 : fingerprint >> shard_shift_;
  }

  // Publishes des.shard.* gauges/counters to the global metrics registry.
  void ExportMetrics() const;

 private:
  void RecordBarrier(SimTime boundary_us,
                     const std::vector<std::uint64_t>& executed_before);

  Simulator* control_;
  Config config_;
  unsigned shard_shift_ = 64;
  std::vector<std::unique_ptr<Simulator>> shards_;
  bool anchored_ = false;
  SimTime start_us_ = 0;   // epoch-grid anchor (control time at first Run)
  std::uint64_t next_epoch_ = 0;
  Stats stats_;
};

}  // namespace painter::netsim
