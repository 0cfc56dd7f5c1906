// Workload engine: replays a flow trace against a TM-Edge at scale.
//
// The engine is the bridge between the trace generator and the
// discrete-event Traffic Manager. It does NOT simulate per-packet dynamics
// for workload flows (a million flows a day at per-packet granularity would
// drown the DES); instead it advances in fixed ticks and, per tick:
//
//   1. admits every trace arrival due by now: snapshots the TM-Edge's tunnel
//      views (probed-up state + RTT EWMA), asks the DestinationPolicy for a
//      destination, pins the flow in the sharded FlowStore, and adds its
//      service rate to the target PoP's LoadTracker gauge;
//   2. expires flows in batch: each pinned flow carries its expiry tick, so
//      expiry is a bucket drain (lookup, release load, erase), never a scan
//      of the whole table.
//
// Ticks live on the simulator's absolute integer-µs grid: tick k fires at
// exactly start + (k+1) * tick_us via ScheduleAtUs, never by accumulating
// relative delays, so tick times and the expiry-bucket grid (bucket =
// expiry_us / tick_us) index the same arithmetic progression on traces of
// any length. Admission compares integer µs (`start_us <= now_us`), so an
// arrival due exactly on a tick boundary is admitted in that tick — there is
// no float truncation anywhere on the admission or expiry path.
// Stats::max_tick_skew_us watermarks |actual - expected| tick time and must
// stay 0; the timeline regression test asserts it.
//
// Pinning is immutable (§3.2): a flow's record never changes destination
// after admission, across any number of store rehashes or expiry sweeps.
// The engine draws no randomness at all — everything derives from the trace
// and the deterministic TM-Edge state — so a run is a pure function of
// (trace, world, config) and can execute alongside fault injection without
// perturbing the TM-Edge's event sequence (it only reads edge state).
//
// Optionally (place_edge_flows) the engine also installs itself as the
// TM-Edge's flow placer, so scripted per-packet flows started through
// TmEdge::StartFlow get the same capacity-aware destination selection.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netsim/sim.h"
#include "tm/tm_edge.h"
#include "workload/flow_store.h"
#include "workload/load.h"
#include "workload/trace.h"

namespace painter::obs {
class TimeseriesRegistry;
}  // namespace painter::obs

namespace painter::control {
class DeltaBus;
}  // namespace painter::control

namespace painter::workload {

// A pinned workload flow. The destination is immutable after admission.
struct PinnedFlow {
  std::int32_t tunnel = -1;
  std::int32_t pop = -1;
  std::uint64_t bytes = 0;
  std::uint64_t expiry_us = 0;
  double rate_bps = 0.0;  // what OnRelease must subtract
};

struct EngineConfig {
  double tick_s = 0.1;  // batch granularity for admission and expiry (>= 1µs)
  // Per-flow service rate: a flow of B bytes stays pinned for B / rate
  // seconds (clamped below), occupying rate bytes/s of its PoP's capacity.
  double flow_bytes_per_s = 100.0e3;
  double min_duration_s = 1.0;
  double max_duration_s = 600.0;
  // Install the capacity-aware placer on the TM-Edge so scripted flows
  // (per-packet, via StartFlow) follow the same policy as workload flows.
  bool place_edge_flows = false;
  // Called once per consumed trace event, before admission, with the engine
  // already at the event's governing tick. The unified-timeline bench uses
  // this to weight benefit curves by the realized byte mix; the hook must be
  // deterministic and must not mutate the engine or the edge.
  std::function<void(const FlowEvent&)> on_arrival;
  // Pin-table layout; only the serial engine has a pin table to lay out.
  FlowStoreConfig store;
  // Optional streaming telemetry. When set, Start() registers sampled series
  // for flow-table occupancy and per-PoP utilization on the registry's grid.
  // Samplers are pure reads of engine/load state; the registry must outlive
  // the run. Null leaves the tick sequence untouched.
  obs::TimeseriesRegistry* timeseries = nullptr;
  // Optional control-plane feed (DESIGN.md §15). When set, each tick
  // publishes typed deltas for changes crossing the thresholds below:
  // kPopLoad when a PoP's utilization moved by ≥ load_delta_frac since its
  // last published value, kUgLatency (id = tunnel) when a tunnel's view RTT
  // moved by ≥ rtt_delta_ms (a tunnel's first measured RTT initializes
  // silently — nothing changed yet), plus LoadTracker's coarse kCapacity
  // band crossings. Null publishes nothing and perturbs nothing: the tick
  // sequence and every stat are byte-identical to a bus-less run.
  control::DeltaBus* delta_bus = nullptr;
  double load_delta_frac = 0.10;
  double rtt_delta_ms = 5.0;
};

// Service-time derivation shared by the serial engine and the sharded
// replay (src/workload/sharded_engine.h): a flow of B bytes stays pinned
// B / flow_bytes_per_s seconds (clamped), occupying B / duration bytes/s of
// its PoP. Identical arithmetic on both paths keeps their load trajectories
// comparable double-for-double.
struct FlowTiming {
  double rate_bps = 0.0;
  std::uint64_t expiry_us = 0;  // trace time
};
[[nodiscard]] FlowTiming TimingFor(const FlowEvent& event,
                                   const EngineConfig& config);

// Throws std::invalid_argument unless TimingFor is defined on `config`:
// flow_bytes_per_s finite and > 0, min_duration_s finite and >= 0,
// max_duration_s finite and >= min_duration_s. Both engines call it before
// anything is sized from the config.
void ValidateEngineConfig(const EngineConfig& config);

// Fills `views` with the per-tunnel views exactly as the engine snapshots
// them once per tick (usable = probed up with a measured RTT,
// TmEdge::TunnelRttMs's notion), reusing its capacity.
void SnapshotViews(const tm::TmEdge& edge, std::span<const int> tunnel_pop,
                   std::vector<TunnelView>& views);

class WorkloadEngine {
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
    // the expiry-bucket grid (the pre-integer-clock relative-rescheduling
    // bug). Pinned to 0 by tests/timeline_test.cc.
    std::uint64_t max_tick_skew_us = 0;
  };

  // `tunnel_pop[i]` maps the edge's tunnel i to a LoadTracker PoP index.
  // All references must outlive the engine; the trace must stay alive and
  // unmodified while the simulation runs. Throws std::invalid_argument on a
  // config ValidateEngineConfig rejects or a tick below 1 µs.
  WorkloadEngine(netsim::Simulator& sim, tm::TmEdge& edge,
                 std::vector<int> tunnel_pop, LoadTracker& load,
                 const DestinationPolicy& policy, const Trace& trace,
                 EngineConfig config = {});
  // The engine keeps a pointer to `policy`; a temporary would dangle after
  // the constructor's full-expression ends.
  WorkloadEngine(netsim::Simulator&, tm::TmEdge&, std::vector<int>,
                 LoadTracker&, const DestinationPolicy&&, const Trace&,
                 EngineConfig = {}) = delete;

  // Schedules the tick loop (first tick one tick_s from now) and, when
  // configured, installs the edge flow placer.
  void Start();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t Concurrent() const { return store_.size(); }

  // Current per-tunnel views from the TM-Edge (usable = probed up with a
  // measured RTT, exactly TmEdge::TunnelRttMs's notion).
  [[nodiscard]] std::vector<TunnelView> CurrentViews() const;

  // The 5-tuple a trace event is pinned under; injective in (ug, seq) below
  // kTraceUgLimit and kTraceSeqLimit, which LoadTrace enforces.
  [[nodiscard]] static netsim::FlowKey KeyFor(const FlowEvent& event);

 private:
  void Tick();
  void Admit(const FlowEvent& event, const std::vector<TunnelView>& views);
  void ExpireBucket(std::size_t bucket);
  [[nodiscard]] std::size_t BucketOf(std::uint64_t expiry_us) const;
  void PublishDeltas(const std::vector<TunnelView>& views);

  netsim::Simulator* sim_;
  tm::TmEdge* edge_;
  std::vector<int> tunnel_pop_;
  LoadTracker* load_;
  const DestinationPolicy* policy_;
  const Trace* trace_;
  EngineConfig config_;

  FlowStore<PinnedFlow> store_;
  netsim::SimTime tick_us_ = 0;   // quantized EngineConfig::tick_s
  netsim::SimTime start_us_ = 0;  // grid anchor: sim time at Start()
  std::size_t cursor_ = 0;  // next unconsumed trace event
  std::size_t tick_index_ = 0;
  // expiry_buckets_[k]: keys whose flows expire within tick k.
  std::vector<std::vector<netsim::FlowKey>> expiry_buckets_;
  Stats stats_;
  // Last values published on the delta bus (empty unless delta_bus is set):
  // per-PoP utilization and per-tunnel view RTT (NaN = not yet measured).
  std::vector<double> published_util_;
  std::vector<double> published_rtt_;
};

}  // namespace painter::workload
