// Replay configuration and per-flow timing, shared by the workload replay
// (ShardedWorkloadReplay, src/workload/sharded_engine.h) and its callers.
//
// A replay advances in fixed ticks on the simulator's absolute integer-µs
// grid. Each tick snapshots the TM-Edge's tunnel views (SnapshotViews), asks
// the DestinationPolicy once for the destination of every arrival due by
// the tick, and pins those flows for TimingFor's service time: a flow of B
// bytes occupies its PoP for B / flow_bytes_per_s seconds (clamped), and
// its destination never changes after admission (§3.2).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tm/tm_edge.h"
#include "workload/load.h"
#include "workload/trace.h"

namespace painter::obs {
class TimeseriesRegistry;
}  // namespace painter::obs

namespace painter::workload {

// A pinned workload flow, as a FlowStore<PinnedFlow> pin table keyed by
// ShardedWorkloadReplay::KeyFor holds it. The destination is immutable
// after admission. The replay itself keeps no table: a pin is a node filed
// under its expiry bucket (DESIGN.md §13).
struct PinnedFlow {
  std::int32_t tunnel = -1;
  std::int32_t pop = -1;
  std::uint64_t bytes = 0;
  std::uint64_t expiry_us = 0;
  double rate_bps = 0.0;  // what OnRelease must subtract
};

struct EngineConfig {
  // Batch granularity for admission and expiry, and the epoch of the
  // sharded timeline (>= 1µs).
  double tick_s = 0.1;
  // Per-flow service rate: a flow of B bytes stays pinned for B / rate
  // seconds (clamped below), occupying rate bytes/s of its PoP's capacity.
  double flow_bytes_per_s = 100.0e3;
  double min_duration_s = 1.0;
  double max_duration_s = 600.0;
  // Install the capacity-aware placer on the TM-Edge so scripted flows
  // (per-packet, via StartFlow) follow the same policy as workload flows.
  bool place_edge_flows = false;
  // Called once per consumed trace event, in trace order, at the barrier of
  // the tick that admits it (the control clock reads the tick boundary).
  // The unified-timeline bench uses this to weight benefit curves by the
  // realized byte mix; the hook must be deterministic and must not mutate
  // the replay or the edge.
  std::function<void(const FlowEvent&)> on_arrival;
  // Optional streaming telemetry. When set, Start() registers sampled series
  // for flow-table occupancy and per-PoP utilization on the registry's grid.
  // Samplers are pure reads of replay/load state; the registry must outlive
  // the run. Null leaves the tick sequence untouched.
  obs::TimeseriesRegistry* timeseries = nullptr;
};

// Service-time derivation: a flow of B bytes stays pinned
// B / flow_bytes_per_s seconds (clamped), occupying B / duration bytes/s of
// its PoP.
struct FlowTiming {
  double rate_bps = 0.0;
  std::uint64_t expiry_us = 0;  // trace time
};
[[nodiscard]] FlowTiming TimingFor(const FlowEvent& event,
                                   const EngineConfig& config);

// Throws std::invalid_argument unless TimingFor is defined on `config`:
// flow_bytes_per_s finite and > 0, min_duration_s finite and >= 0,
// max_duration_s >= min_duration_s and placeable on the µs grid (finite,
// below 2^63 µs). The replay calls it before anything is sized from the
// config.
void ValidateEngineConfig(const EngineConfig& config);

// Fills `views` with the per-tunnel views a tick's decision reads (usable =
// probed up with a measured RTT, TmEdge::TunnelRttMs's notion), reusing its
// capacity.
void SnapshotViews(const tm::TmEdge& edge, std::span<const int> tunnel_pop,
                   std::vector<TunnelView>& views);

}  // namespace painter::workload
