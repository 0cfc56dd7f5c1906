// Chaos runner: sweep random fault plans and check the §5.2.3 invariants.
//
// For each seed: generate a random TM world and a random FaultPlan, run the
// plan-driven scenario engine, and verify the four machine-checkable
// invariants (flow pinning, detection latency <= probe_interval + 1.3 RTT,
// no silent blackholing, reconvergence after faults clear). A subset of
// seeds re-runs under load: the workload replay drives a deterministic flow
// trace through the capacity-aware policy while the same faults play out
// (same four invariants, plus the policy contract). Another subset replays
// the plan's BGP events through the message-level simulation and checks
// convergence back to the static Gao–Rexford fixpoint.
//
// Everything is a pure function of the seeds: no wall-clock, fixed-order
// iteration, so `chaos_runner --seed S` is a one-line repro for any
// violating plan and its report is byte-identical across reruns (after
// obs::StripVolatile removes wall-ms noise). Exit status is the number of
// violating seeds (0 = all invariants held).
//
// The --under_load mode is the detection-latency SLO harness: each seed runs
// its world twice — idle (two scripted flows) and loaded (the workload
// replay keeping a full flow table through the capacity-aware policy) — and
// the runner aggregates detection latency in RTTs of the dead path (the
// paper's unit; §5.2.3 quotes ~1.3 RTT). The exit status asserts the SLO
// (loaded p99 <= --slo_p99_rtts, default 8) on top of the invariant checks,
// and the run report carries a painter.timeseries.v1 block from the first
// loaded seed, including the replay's des.shard.* queue-depth/epoch-skew
// series, that is byte-identical across reruns (after obs::StripVolatile).
// perf_check.sh gates this report against a committed baseline.
//
// Usage:
//   chaos_runner               # seeds 1..50
//   chaos_runner --seeds 200   # seeds 1..200
//   chaos_runner --seed 17     # just seed 17 (repro mode)
//   chaos_runner --shards 4    # loaded runs replay over 4 shard simulators
//                              # (a power of two in [1, 256], default 1)
//   chaos_runner --under_load [--seeds N] [--slo_p99_rtts X]
//
// --shards N replays every loaded run over N shard simulators on one thread
// (DESIGN.md §13) under the same fault plans; stdout is identical at every
// count. Only the --under_load report's des.shard<i>.* series and gauges
// depend on N, and reports are compared against baselines at the default
// --shards 1.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bgpsim/session_sim.h"
#include "faultsim/bgp_replay.h"
#include "faultsim/fault_plan.h"
#include "faultsim/invariants.h"
#include "faultsim/scenario.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/chaos_load.h"

namespace {

using namespace painter;

faultsim::FaultPlan PlanForSeed(std::uint64_t seed,
                                const faultsim::FaultScenarioSpec& spec) {
  faultsim::PlanSpec ps;
  ps.tunnels = spec.tunnels.size();
  ps.pops = spec.pop_names.size();
  // Faults must clear well before the end of the run so the reconvergence
  // invariant is checkable: latest onset 60 + max duration 15 + settle 5
  // < run_for 90.
  ps.latest_s = 60.0;
  return faultsim::GenerateRandomPlan(seed, ps);
}

struct SeedResult {
  std::uint64_t seed = 0;
  std::size_t events = 0;
  std::size_t checks = 0;
  std::size_t failovers = 0;
  std::vector<std::string> violations;
  std::vector<double> detection_latencies_s;
  std::vector<faultsim::InvariantReport::Detection> detections;
};

SeedResult RunTmSeed(std::uint64_t seed) {
  const faultsim::FaultScenarioSpec spec = faultsim::GenerateRandomSpec(seed);
  const faultsim::FaultPlan plan = PlanForSeed(seed, spec);
  const faultsim::FaultScenarioResult result =
      faultsim::RunFaultScenario(spec, plan);
  const faultsim::InvariantReport rep =
      faultsim::CheckTmInvariants(spec, plan, result);
  return SeedResult{.seed = seed,
                    .events = plan.events.size(),
                    .checks = rep.checks,
                    .failovers = result.failovers.size(),
                    .violations = rep.violations,
                    .detection_latencies_s = rep.detection_latencies_s,
                    .detections = rep.detections};
}

// Detection latencies expressed in RTTs of the path that died.
std::vector<double> InRtts(
    const std::vector<faultsim::InvariantReport::Detection>& detections) {
  std::vector<double> rtts;
  rtts.reserve(detections.size());
  for (const auto& d : detections) {
    if (d.rtt_s > 0.0) rtts.push_back(d.latency_s / d.rtt_s);
  }
  return rtts;
}

// The --under_load SLO harness: idle vs loaded detection latency per seed,
// aggregated in RTTs. Returns the process exit status.
int RunUnderLoadMode(std::uint64_t first_seed, std::uint64_t last_seed,
                     std::size_t shards, double slo_p99_rtts) {
  obs::Metrics().ResetValues();
  obs::RunReport report{"chaos_under_load"};
  report.SetSeed(first_seed);
  report.AddConfig("first_seed", static_cast<double>(first_seed));
  report.AddConfig("last_seed", static_cast<double>(last_seed));
  report.AddConfig("slo_p99_rtts", slo_p99_rtts);

  // One streaming-telemetry registry, attached to the first loaded seed only
  // (every seed would multiply the report by the sweep width). Samplers
  // reference run-local objects, so the registry is only sampled during that
  // run and only exported afterwards.
  obs::TimeseriesRegistry timeseries{{.period_s = 1.0}};

  std::vector<double> idle_rtts;
  std::vector<double> loaded_rtts;
  std::size_t violating_seeds = 0;
  std::size_t loaded_flows = 0;
  double max_utilization = 0.0;
  {
    const obs::RunReport::ScopedPhase phase{report, "idle_sweep"};
    for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      const SeedResult r = RunTmSeed(seed);
      const std::vector<double> rtts = InRtts(r.detections);
      idle_rtts.insert(idle_rtts.end(), rtts.begin(), rtts.end());
      if (!r.violations.empty()) {
        ++violating_seeds;
        for (const auto& v : r.violations) {
          std::cout << "VIOLATION idle seed=" << seed << ": " << v << "\n";
        }
      }
    }
  }
  {
    const obs::RunReport::ScopedPhase phase{report, "loaded_sweep"};
    for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      workload::ChaosLoadConfig cfg;
      cfg.shards = shards;
      if (seed == first_seed) {
        cfg.timeseries = &timeseries;
        cfg.shard_timeseries = &timeseries;
      }
      const workload::ChaosLoadResult r =
          workload::RunChaosUnderLoad(seed, {}, cfg);
      const std::vector<double> rtts = InRtts(r.invariants.detections);
      loaded_rtts.insert(loaded_rtts.end(), rtts.begin(), rtts.end());
      loaded_flows += r.load_stats.started;
      max_utilization = std::max(max_utilization, r.load_stats.max_utilization);
      std::vector<std::string> all = r.invariants.violations;
      all.insert(all.end(), r.load_violations.begin(), r.load_violations.end());
      if (!all.empty()) {
        ++violating_seeds;
        for (const auto& v : all) {
          std::cout << "VIOLATION loaded seed=" << seed << ": " << v << "\n";
        }
      }
    }
  }

  const auto summarize = [&](const char* key, std::vector<double>& rtts) {
    report.AddValue(std::string{key} + "_detections",
                    static_cast<double>(rtts.size()));
    if (rtts.empty()) return 0.0;
    const double p50 = util::Percentile(rtts, 50.0);
    const double p99 = util::Percentile(rtts, 99.0);
    report.AddValue(std::string{key} + "_p50_rtts", p50);
    report.AddValue(std::string{key} + "_p99_rtts", p99);
    std::cout << key << " detection latency over " << rtts.size()
              << " bounded onsets: p50 " << util::Table::Num(p50, 2)
              << " RTTs, p99 " << util::Table::Num(p99, 2)
              << " RTTs (cf. Fig. 10: ~1.3 RTT of the dead path).\n";
    return p99;
  };
  summarize("idle", idle_rtts);
  const double loaded_p99 = summarize("loaded", loaded_rtts);

  // The SLO proper: under a full flow table, tail detection must stay within
  // the configured bound, and the sweep must actually produce detections to
  // measure (an empty histogram proves nothing).
  std::size_t slo_breaches = 0;
  if (loaded_rtts.empty()) {
    std::cout << "SLO BREACH: loaded sweep produced zero bounded detections\n";
    ++slo_breaches;
  } else if (loaded_p99 > slo_p99_rtts) {
    std::cout << "SLO BREACH: loaded p99 " << util::Table::Num(loaded_p99, 2)
              << " RTTs > bound " << util::Table::Num(slo_p99_rtts, 2)
              << " RTTs\n";
    ++slo_breaches;
  }

  std::cout << "chaos_under_load: " << (last_seed - first_seed + 1)
            << " seed(s) x {idle, loaded}, " << loaded_flows
            << " workload flows, " << violating_seeds << " violating seed(s), "
            << slo_breaches << " SLO breach(es).\n";

  report.AddValue("loaded_flows", static_cast<double>(loaded_flows));
  report.AddValue("max_utilization", max_utilization);
  report.AddValue("violating_seeds", static_cast<double>(violating_seeds));
  report.AddValue("slo_breaches", static_cast<double>(slo_breaches));
  report.AttachTimeseries(timeseries);
  report.AttachMetrics();
  report.Write(bench::ReportPath("chaos_under_load"));
  return static_cast<int>(violating_seeds + slo_breaches);
}

// BGP-layer replay on a shared bench world: schedule the seed's session
// events against the message-level sim and demand reconvergence to the
// static fixpoint. Returns violation messages.
std::vector<std::string> RunBgpSeed(std::uint64_t seed,
                                    const bench::BenchWorld& w,
                                    const std::vector<util::AsId>& neighbors) {
  netsim::Simulator sim;
  bgpsim::MessageLevelSim msim{
      w.internet().graph, w.deployment->cloud_as(), sim, {.seed = seed}};
  msim.Announce(neighbors);
  sim.Run(1e6);
  if (!sim.Empty()) return {"bgp: initial announcement never quiesced"};

  faultsim::PlanSpec ps;
  ps.neighbors = neighbors.size();
  const faultsim::FaultPlan plan = faultsim::GenerateRandomPlan(seed, ps);
  faultsim::ScheduleBgpFaults(plan, neighbors, msim, sim);
  sim.Run(sim.Now() + 1e6);
  if (!sim.Empty()) return {"bgp: replay never quiesced"};
  auto mismatches = faultsim::CheckBgpConvergence(
      w.internet().graph, w.deployment->cloud_as(), neighbors, msim);
  for (std::string& m : mismatches) {
    m += "  [" + faultsim::ToString(plan) + "]";
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t first_seed = 1;
  std::uint64_t last_seed = 50;
  bool under_load = false;
  std::size_t shards = 1;
  double slo_p99_rtts = 8.0;
  bool bad_args = false;
  for (int i = 1; i < argc && !bad_args; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      last_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      first_seed = last_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--under_load") == 0) {
      under_load = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      bad_args = !bench::ParseShards(argv[++i], shards);
    } else if (std::strcmp(argv[i], "--slo_p99_rtts") == 0 && i + 1 < argc) {
      slo_p99_rtts = std::strtod(argv[++i], nullptr);
    } else {
      bad_args = true;
    }
  }
  if (bad_args) {
    std::cerr << "usage: chaos_runner [--seeds N | --seed S] [--under_load] "
                 "[--shards N] [--slo_p99_rtts X]\n"
                 "  --shards: a power of two in [1, 256] (default 1)\n";
    return 64;
  }
  if (under_load) {
    return RunUnderLoadMode(first_seed, last_seed, shards, slo_p99_rtts);
  }

  obs::Metrics().ResetValues();
  obs::RunReport report{"chaos_runner"};
  report.SetSeed(first_seed);
  report.AddConfig("first_seed", static_cast<double>(first_seed));
  report.AddConfig("last_seed", static_cast<double>(last_seed));

  std::vector<double> detections_ms;
  std::size_t total_checks = 0;
  std::size_t total_events = 0;
  std::size_t violating_seeds = 0;
  std::size_t violations = 0;
  {
    const obs::RunReport::ScopedPhase phase{report, "tm_sweep"};
    for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      const SeedResult r = RunTmSeed(seed);
      total_checks += r.checks;
      total_events += r.events;
      for (const double d : r.detection_latencies_s) {
        detections_ms.push_back(d * 1000.0);
      }
      if (!r.violations.empty()) {
        ++violating_seeds;
        violations += r.violations.size();
        for (const auto& v : r.violations) {
          std::cout << "VIOLATION seed=" << seed << ": " << v << "\n";
        }
      }
    }
  }

  // Chaos under load: every 5th seed re-runs its world and plan with the
  // workload replay admitting a deterministic flow trace through the
  // capacity-aware policy while the faults play out. Checks the same four
  // invariants plus the policy contract (zero down-picks) and liveness
  // (the workload actually started flows).
  std::size_t load_seeds = 0;
  std::size_t load_flows = 0;
  std::size_t load_trace_events = 0;
  std::size_t load_violations = 0;
  std::size_t load_violating_seeds = 0;
  {
    const obs::RunReport::ScopedPhase phase{report, "load_sweep"};
    for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      if (last_seed != first_seed && seed % 5 != 0) continue;
      ++load_seeds;
      workload::ChaosLoadConfig cfg;
      cfg.shards = shards;
      const workload::ChaosLoadResult r =
          workload::RunChaosUnderLoad(seed, {}, cfg);
      load_flows += r.load_stats.started;
      load_trace_events += r.trace_events;
      total_checks += r.invariants.checks;
      std::vector<std::string> all = r.invariants.violations;
      all.insert(all.end(), r.load_violations.begin(),
                 r.load_violations.end());
      if (!all.empty()) {
        ++load_violating_seeds;
        load_violations += all.size();
        for (const auto& v : all) {
          std::cout << "VIOLATION load seed=" << seed << ": " << v << "\n";
        }
      }
    }
  }

  // BGP replay on every 10th seed (session-level sims are ~100x costlier
  // than TM scenarios; sampling keeps the default sweep under a minute).
  std::size_t bgp_seeds = 0;
  std::size_t bgp_violations = 0;
  {
    const obs::RunReport::ScopedPhase phase{report, "bgp_replay"};
    const bench::BenchWorld w = bench::MakeBenchWorld(7, 200, 6);
    std::vector<util::AsId> neighbors;
    for (const auto& sess : w.deployment->peerings()) {
      if (std::find(neighbors.begin(), neighbors.end(), sess.peer) ==
          neighbors.end()) {
        neighbors.push_back(sess.peer);
      }
    }
    for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      if (last_seed != first_seed && seed % 10 != 0) continue;
      ++bgp_seeds;
      const auto mismatches = RunBgpSeed(seed, w, neighbors);
      bgp_violations += mismatches.size();
      for (const auto& m : mismatches) {
        std::cout << "VIOLATION seed=" << seed << ": " << m << "\n";
      }
    }
  }

  const std::size_t plans = last_seed - first_seed + 1;
  std::cout << "chaos_runner: " << plans << " plan(s), " << total_events
            << " fault events, " << total_checks << " invariant checks, "
            << violations << " TM violation(s), " << bgp_violations
            << " BGP violation(s) over " << bgp_seeds << " replay(s).\n";
  std::cout << "chaos under load: " << load_seeds << " plan(s), "
            << load_trace_events << " trace events, " << load_flows
            << " workload flows, " << load_violations << " violation(s).\n";
  if (!detections_ms.empty()) {
    std::cout << "detection latency over " << detections_ms.size()
              << " bounded onsets: median "
              << util::Table::Num(util::Median(detections_ms), 1)
              << " ms, p95 "
              << util::Table::Num(util::Percentile(detections_ms, 95.0), 1)
              << " ms (cf. Fig. 10: ~1.3 RTT of the dead path).\n";
  }

  report.AddValue("plans", static_cast<double>(plans));
  report.AddValue("fault_events", static_cast<double>(total_events));
  report.AddValue("invariant_checks", static_cast<double>(total_checks));
  report.AddValue("tm_violations", static_cast<double>(violations));
  report.AddValue("bgp_replays", static_cast<double>(bgp_seeds));
  report.AddValue("bgp_violations", static_cast<double>(bgp_violations));
  report.AddValue("load_plans", static_cast<double>(load_seeds));
  report.AddValue("load_trace_events",
                  static_cast<double>(load_trace_events));
  report.AddValue("load_flows", static_cast<double>(load_flows));
  report.AddValue("load_violations", static_cast<double>(load_violations));
  report.AddValue("detections", static_cast<double>(detections_ms.size()));
  if (!detections_ms.empty()) {
    report.AddValue("median_detection_ms", util::Median(detections_ms));
    report.AddValue("p95_detection_ms",
                    util::Percentile(detections_ms, 95.0));
  }
  report.AttachMetrics();
  report.Write(bench::ReportPath("chaos_runner"));

  return static_cast<int>(violating_seeds + load_violating_seeds +
                          (bgp_violations > 0 ? 1 : 0));
}
