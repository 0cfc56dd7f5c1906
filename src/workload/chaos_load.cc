#include "workload/chaos_load.h"

#include <optional>

#include "faultsim/fault_plan.h"
#include "obs/timeseries.h"
#include "util/hashmix.h"
#include "workload/sharded_engine.h"

namespace painter::workload {

ChaosLoadResult RunChaosUnderLoad(std::uint64_t seed,
                                  const faultsim::WorldSpec& world,
                                  const ChaosLoadConfig& config) {
  faultsim::FaultScenarioSpec spec = faultsim::GenerateRandomSpec(seed, world);

  // Mirrors the chaos runner's plan shaping: faults clear well before the
  // end so the reconvergence invariant stays checkable.
  faultsim::PlanSpec ps;
  ps.tunnels = spec.tunnels.size();
  ps.pops = spec.pop_names.size();
  ps.latest_s = 60.0;
  const faultsim::FaultPlan plan = faultsim::GenerateRandomPlan(seed, ps);

  // A dedicated trace-seed stream: the scenario RNG and the TmEdge RNG stay
  // byte-identical to the load-free sweep for the same chaos seed.
  const std::vector<UgProfile> profiles =
      SyntheticUgProfiles(config.ug_count, util::MixSeed(seed, 0x10ADu));
  TraceConfig tc;
  tc.seed = util::MixSeed(seed, 0x712ACEu);
  tc.duration_s = spec.run_for_s;
  tc.mean_flows_per_s = config.mean_flows_per_s;
  // Flow lifetimes comparable to the fault windows, so outages hit a busy
  // table and expiry churns during the run.
  tc.size_min_bytes = 5.0e3;
  tc.size_max_bytes = 5.0e6;
  const Trace trace = GenerateTrace(tc, profiles);

  LoadTracker load{
      std::vector<double>(spec.pop_names.size(), config.pop_capacity_bps)};
  const LoadAwarePolicy policy{config.utilization_threshold};

  spec.timeseries = config.timeseries;

  ShardedReplayConfig rcfg;
  rcfg.shards = config.shards;
  rcfg.shard_timeseries = config.shard_timeseries;
  rcfg.engine.timeseries = config.timeseries;
  rcfg.engine.place_edge_flows = true;
  // 1 kB/s of service: a 5 kB..5 MB flow lives 5..600 s.
  rcfg.engine.flow_bytes_per_s = 1.0e3;
  rcfg.engine.min_duration_s = 2.0;
  rcfg.engine.max_duration_s = 0.5 * spec.run_for_s;

  // The scenario simulator becomes the control shard (probes, faults,
  // scripted flows, telemetry) and the replay drives it plus its shard
  // simulators in epoch lock-step, so the scenario's own event loop is
  // replaced via the drive hook.
  std::optional<ShardedWorkloadReplay> replay;
  spec.attach = [&](netsim::Simulator& sim, tm::TmEdge& edge,
                    const std::vector<int>& tunnel_pop) {
    replay.emplace(sim, edge, tunnel_pop, load, policy, trace, rcfg);
    replay->Start();
  };
  spec.drive = [&](netsim::Simulator&, double run_for_s) {
    replay->Run(run_for_s);
  };

  const faultsim::FaultScenarioResult result =
      faultsim::RunFaultScenario(spec, plan);

  ChaosLoadResult out;
  out.invariants = faultsim::CheckTmInvariants(spec, plan, result);
  out.trace_events = trace.events.size();
  if (config.timeseries != nullptr) {
    for (const auto& d : out.invariants.detections) {
      config.timeseries->Append("faultsim.detection_latency_rtts",
                                netsim::UsFromSeconds(d.onset_s),
                                d.rtt_s > 0.0 ? d.latency_s / d.rtt_s : 0.0);
    }
  }
  if (replay.has_value()) {
    out.load_stats = replay->stats();
    if (out.load_stats.down_picks > 0) {
      out.load_violations.push_back(
          "load: policy picked a perceived-down tunnel " +
          std::to_string(out.load_stats.down_picks) + " time(s)  [" +
          faultsim::ToString(plan) + "]");
    }
    if (out.load_stats.started == 0) {
      out.load_violations.push_back(
          "load: workload admitted zero flows  [" + faultsim::ToString(plan) +
          "]");
    }
  } else {
    out.load_violations.push_back("load: replay never attached");
  }
  return out;
}

}  // namespace painter::workload
