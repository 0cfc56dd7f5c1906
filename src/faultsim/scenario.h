// Plan-driven Traffic Manager scenario engine.
//
// Generalizes the original Fig. 10 script (one PoP withdrawal at a fixed
// time) into: a declarative world (PoPs, tunnels with fault-free base paths,
// client flows) plus a FaultPlan compiled onto it by FaultInjector. The
// engine wires TmPops and a TmEdge onto a fresh netsim::Simulator exactly
// the way the hand-written scenario did, so a plan that reproduces the old
// schedule is bit-identical to the old run (the failover golden test proves
// it), and any other plan is a new adversarial experiment at zero marginal
// code.
//
// Determinism: everything derives from (spec, plan). No wall-clock, no
// global state besides obs counters; same inputs -> byte-identical results.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "faultsim/fault_injector.h"
#include "faultsim/fault_plan.h"
#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/sim.h"
#include "tm/tm_edge.h"

namespace painter::obs {
class TimeseriesRegistry;
}  // namespace painter::obs

namespace painter::faultsim {

struct ScenarioTunnel {
  std::string name;
  netsim::IpAddr remote_ip = 0;
  netsim::PathModel base_path;  // the path with no faults injected
  int pop = 0;                  // index into FaultScenarioSpec::pop_names
  // Steady-state one-way delay (seconds) for invariant checking; <= 0 when
  // the base path is itself time-varying (then the reconvergence invariant
  // skips this tunnel).
  double steady_delay_s = 0.0;
};

struct ScenarioFlow {
  double start_s = 0.0;
  netsim::FlowKey key;
  std::size_t packets = 0;
  double interval_s = 0.05;
  std::uint32_t payload_bytes = 1400;
};

struct FaultScenarioSpec {
  double run_for_s = 120.0;
  double sample_every_s = 0.5;
  tm::TmEdge::Config edge;
  std::vector<std::string> pop_names;
  std::vector<ScenarioTunnel> tunnels;
  std::vector<ScenarioFlow> flows;

  // Optional traffic driver, invoked once after the edge starts probing and
  // before the event loop runs: the workload engine attaches here to drive
  // large-scale load through the same simulator while the plan's faults
  // play out (chaos-under-load). `tunnel_pop[i]` is the PoP index of tunnel
  // i, spec order. The hook must be deterministic and must not draw from
  // the TmEdge's RNG, so an absent or no-op hook leaves the run
  // bit-identical.
  std::function<void(netsim::Simulator& sim, tm::TmEdge& edge,
                     const std::vector<int>& tunnel_pop)>
      attach;

  // Optional event-loop driver, replacing the scenario's own
  // `sim.Run(run_for_s)`. The sharded workload replay attaches here: it must
  // run the scenario simulator and its shard simulators in epoch lock-step,
  // so no plain Run call can drive it. The hook must advance `sim` to
  // exactly `run_for_s` seconds; it runs after `attach` and after every
  // fault/flow/telemetry event is scheduled. Null keeps the classic serial
  // loop (and the run byte-identical).
  std::function<void(netsim::Simulator& sim, double run_for_s)> drive;

  // Optional streaming telemetry. When set, the scenario registers sampled
  // series for the edge (chosen tunnel, probed-up count), appends a
  // switchover event series after the run, and starts the registry's
  // sampling chain on the scenario simulator for run_for_s. The registry
  // must outlive the call; its samplers are only valid during the run. A
  // null registry leaves the run's event sequence bit-identical (sampling
  // events are pure reads but do occupy queue slots).
  obs::TimeseriesRegistry* timeseries = nullptr;
};

struct FaultScenarioResult {
  std::vector<std::string> tunnel_names;
  std::vector<tm::TmEdge::Sample> samples;
  std::vector<tm::TmEdge::FailoverEvent> failovers;
  std::vector<std::size_t> pop_data_packets;  // per PoP, spec order

  // Flow→tunnel pinning observed at every sample tick, flows in FlowKey
  // order (fixed-order iteration; the pinning invariant walks this).
  struct PinningSnapshot {
    double t = 0.0;
    std::vector<std::pair<netsim::FlowKey, int>> flow_tunnels;
  };
  std::vector<PinningSnapshot> pinning;

  // Per-flow delivery counts at end of run, FlowKey order.
  std::vector<std::pair<netsim::FlowKey, tm::TmEdge::FlowStats>> flow_stats;

  // TM-applicable events injected, per FaultType (faultsim.injected.*).
  std::array<std::size_t, kFaultTypeCount> injected{};
};

// Runs `spec` under `plan`. Also bumps the global `faultsim.injected.<type>`
// counters once per applied event.
[[nodiscard]] FaultScenarioResult RunFaultScenario(
    const FaultScenarioSpec& spec, const FaultPlan& plan);

// Shape of the randomized TM worlds the chaos runner and the property suite
// sweep: `pops` in [min_pops, max_pops], `tunnels` in [min_tunnels,
// max_tunnels] (round-robin across PoPs) with steady one-way delays in
// [min_delay_s, max_delay_s], a long-lived flow from t=1 s and a mid-run
// flow at run_for_s * 0.45.
struct WorldSpec {
  double run_for_s = 90.0;
  double sample_every_s = 0.5;
  std::size_t min_pops = 2;
  std::size_t max_pops = 3;
  std::size_t min_tunnels = 3;
  std::size_t max_tunnels = 6;
  double min_delay_s = 0.010;
  double max_delay_s = 0.035;
};

// Pure function of (seed, spec): the same seed always yields the same world,
// drawn from a dedicated Rng stream (never the TmEdge's).
[[nodiscard]] FaultScenarioSpec GenerateRandomSpec(std::uint64_t seed,
                                                   const WorldSpec& world = {});

}  // namespace painter::faultsim
