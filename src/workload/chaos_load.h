// Chaos-under-load: the faultsim plan engine with the workload replay
// driving traffic.
//
// The chaos runner's original sweep checks the four §5.2.3 invariants with
// two scripted flows in play; this wrapper re-runs the same (seed -> world,
// seed -> plan) construction with a deterministic trace of workload flows
// admitted through the capacity-aware policy while the faults play out, and
// the TM-Edge's scripted flows routed through the same policy (the replay
// installs itself as the edge's flow placer). Checked per seed:
//
//   - the four TM invariants (pinning, detection bound, no silent
//     blackholing, reconvergence) on the scripted flows, unchanged;
//   - the policy contract: zero picks of a perceived-down tunnel;
//   - liveness: the workload actually started flows (a sweep that admits
//     nothing proves nothing).
//
// Everything is a pure function of the seed, like the rest of faultsim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faultsim/invariants.h"
#include "faultsim/scenario.h"
#include "workload/sharded_engine.h"

namespace painter::workload {

struct ChaosLoadConfig {
  // Trace shape: aggregate arrival rate over the scenario's run_for_s.
  double mean_flows_per_s = 40.0;
  std::size_t ug_count = 32;
  // Small PoP capacities so the load-aware threshold actually binds.
  double pop_capacity_bps = 2.0e6;
  double utilization_threshold = 0.85;
  // Shard simulators of the replay (DESIGN.md §13), run on the calling
  // thread: a power of two in [1, 256], results identical for every value.
  std::size_t shards = 1;
  // Optional des.shard<i>.* series; see ShardedReplayConfig::
  // shard_timeseries for the cross-shard-count caveat.
  obs::TimeseriesRegistry* shard_timeseries = nullptr;
  // Optional streaming telemetry: threaded to both the scenario (edge
  // samplers, switchover events) and the replay (occupancy, utilization),
  // plus a `faultsim.detection_latency_rtts` event series — one point per
  // bounded detection, stamped at the fault onset. Null disables all of it.
  obs::TimeseriesRegistry* timeseries = nullptr;
};

struct ChaosLoadResult {
  faultsim::InvariantReport invariants;
  ShardedWorkloadReplay::Stats load_stats;
  std::vector<std::string> load_violations;  // policy-contract breaches
  std::size_t trace_events = 0;

  [[nodiscard]] bool ok() const {
    return invariants.ok() && load_violations.empty();
  }
};

// Runs seed's random world + random plan with the workload replay attached.
[[nodiscard]] ChaosLoadResult RunChaosUnderLoad(
    std::uint64_t seed, const faultsim::WorldSpec& world = {},
    const ChaosLoadConfig& config = {});

}  // namespace painter::workload
