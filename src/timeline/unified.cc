#include "timeline/unified.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "cloudsim/deployment.h"
#include "cloudsim/ingress.h"
#include "core/learning_timeline.h"
#include "core/problem.h"
#include "core/sim_environment.h"
#include "dnssim/resolvers.h"
#include "faultsim/fault_injector.h"
#include "faultsim/fault_plan.h"
#include "measure/latency.h"
#include "netsim/path.h"
#include "netsim/sim.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"
#include "topo/generator.h"
#include "util/hashmix.h"
#include "util/rng.h"
#include "workload/load.h"
#include "workload/sharded_engine.h"
#include "workload/trace.h"

namespace painter::timeline {
namespace {

// The TM world the trace replays through: 8 tunnels round-robin over 4 PoPs
// with fixed one-way delays (the workload_throughput convention), plus the
// shared simulator everything else schedules onto.
constexpr std::size_t kTmPops = 4;
constexpr std::size_t kTmTunnels = 8;
constexpr double kPopCapacityBps = 50.0e6;

void Append(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += key;
  out += '=';
  out += buf;
  out += '\n';
}

void Append(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += '=';
  out += std::to_string(v);
  out += '\n';
}

}  // namespace

UnifiedTimelineResult RunUnifiedTimeline(const UnifiedTimelineConfig& config) {
  const obs::TraceSpan span{"timeline.RunUnifiedTimeline"};

  // --- World: simulated Internet + deployment the rounds advertise into.
  topo::InternetConfig icfg;
  icfg.seed = config.seed;
  icfg.tier1_count = 8;
  icfg.transit_count = config.transits;
  icfg.regional_count = config.regionals;
  icfg.stub_count = config.stubs;
  topo::Internet internet = topo::GenerateInternet(icfg);

  cloudsim::DeploymentConfig dcfg;
  dcfg.seed = config.seed + 1;
  dcfg.pop_count = config.pops;
  const cloudsim::Deployment deployment =
      cloudsim::BuildDeployment(internet, dcfg);
  const cloudsim::PolicyCatalog catalog{internet, deployment};
  const cloudsim::IngressResolver resolver{internet, deployment};
  measure::OracleConfig ocfg;
  ocfg.seed = config.seed + 2;
  const measure::LatencyOracle oracle{internet, deployment, ocfg};

  util::Rng build_rng{util::MixSeed(config.seed, 0x1D5Au)};
  const core::ProblemInstance instance = core::BuildMeasuredInstance(
      internet, deployment, catalog, resolver, oracle, build_rng);

  // --- Workload trace.
  workload::TraceConfig tc;
  tc.seed = config.seed;
  tc.duration_s = config.trace_duration_s;
  tc.mean_flows_per_s = config.mean_flows_per_s;
  const std::vector<workload::UgProfile> profiles =
      workload::UgProfilesFromDeployment(internet, deployment);
  const workload::Trace trace = workload::GenerateTrace(tc, profiles);

  // --- DNS resolver population.
  dnssim::ResolverConfig rcfg;
  rcfg.seed = util::MixSeed(config.seed, 0xD25u);
  const dnssim::ResolverAssignment resolvers =
      dnssim::AssignResolvers(deployment, rcfg);

  // --- The one simulator and everything that schedules onto it.
  netsim::Simulator sim;

  std::vector<std::unique_ptr<tm::TmPop>> pops;
  std::vector<int> tunnel_pop;
  for (std::size_t p = 0; p < kTmPops; ++p) {
    pops.push_back(std::make_unique<tm::TmPop>(
        sim, "PoP-" + std::to_string(p),
        std::vector<netsim::IpAddr>{
            0x02020202u + 0x01010101u * static_cast<netsim::IpAddr>(p)}));
  }
  for (std::size_t i = 0; i < kTmTunnels; ++i) {
    tunnel_pop.push_back(static_cast<int>(i % kTmPops));
  }

  faultsim::PlanSpec pspec;
  pspec.tunnels = kTmTunnels;
  pspec.pops = kTmPops;
  pspec.earliest_s = 10.0;
  pspec.latest_s = std::max(pspec.earliest_s, 0.8 * config.trace_duration_s);
  faultsim::FaultPlan plan;
  if (config.inject_faults) {
    plan = faultsim::GenerateRandomPlan(util::MixSeed(config.seed, 0xFA17u),
                                        pspec);
  }
  const faultsim::FaultInjector injector{std::move(plan), tunnel_pop};

  std::vector<tm::TunnelConfig> tunnels;
  for (std::size_t i = 0; i < kTmTunnels; ++i) {
    tunnels.push_back(tm::TunnelConfig{
        .name = "tunnel-" + std::to_string(i),
        .remote_ip = 0x0a0a0a00u + static_cast<netsim::IpAddr>(i),
        .path = injector.WrapPath(
            i, netsim::PathModel::Fixed(0.010 +
                                        0.002 * static_cast<double>(i))),
        .pop = pops[static_cast<std::size_t>(tunnel_pop[i])].get(),
        .admit = injector.AdmitFilter(i)});
  }
  tm::TmEdge::Config ecfg;
  ecfg.seed = util::MixSeed(config.seed, 0xED6Eu);
  ecfg.probe_interval_s = 0.050;
  tm::TmEdge edge{sim, ecfg, std::move(tunnels)};

  const double horizon_s =
      std::max(config.trace_duration_s + 2.0,
               config.round_start_s +
                   static_cast<double>(config.max_rounds) *
                       config.round_interval_s +
                   1.0);

  // --- DNS TTL cache: resolvers pick up published versions with TTL lag.
  dnssim::TtlCacheConfig ttlcfg;
  ttlcfg.ttl_s = config.ttl_s;
  ttlcfg.seed = util::MixSeed(config.seed, 0x77Cu);
  dnssim::TtlCache ttl{sim, resolvers.resolver_count, ttlcfg};

  // --- Advertisement rounds as scheduled events. Version v = round v-1's
  // configuration; version 0 is pre-PAINTER anycast (zero benefit).
  core::OrchestratorConfig orch_cfg;
  orch_cfg.prefix_budget = config.prefix_budget;
  orch_cfg.max_learning_iterations = std::max<std::size_t>(config.max_rounds,
                                                           2);
  core::Orchestrator orchestrator{instance, orch_cfg};
  core::SimEnvironment env{resolver, oracle,
                           util::Rng{util::MixSeed(config.seed, 0xE4Fu)}};

  UnifiedTimelineResult result;
  // version_benefit[v][ug]: realized improvement over anycast (ms, >= 0)
  // once the UG is steered under version v. Version 0 = anycast.
  std::vector<std::vector<double>> version_benefit;
  version_benefit.emplace_back(instance.UgCount(), 0.0);

  core::LearningTimelineConfig ltcfg;
  ltcfg.start_s = config.round_start_s;
  ltcfg.round_interval_s = config.round_interval_s;
  ltcfg.timeseries = config.timeseries;
  core::LearningTimeline rounds{
      sim, orchestrator, env, ltcfg,
      [&](std::size_t, const core::Orchestrator::IterationReport& report,
          const std::vector<core::AdvertisementEnvironment::PrefixObservation>&
              observations) {
        std::vector<double> benefit(instance.UgCount(), 0.0);
        for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
          double best = instance.anycast_rtt_ms[u];
          for (const auto& obs : observations) {
            if (obs.ingress_of_ug.at(u).has_value()) {
              best = std::min(best, obs.rtt_ms_of_ug.at(u));
            }
          }
          benefit[u] = instance.anycast_rtt_ms[u] - best;
        }
        version_benefit.push_back(std::move(benefit));
        ttl.Publish(version_benefit.size() - 1);
        result.rounds.push_back(UnifiedTimelineResult::Round{
            .t_s = sim.Now(),
            .predicted_mean_ms = report.predicted.mean_ms,
            .realized_ms = report.realized_ms,
            .realized_positive_ms = report.realized_positive_ms,
            .prefixes_used = report.prefixes_used});
      }};

  // --- Workload replay with per-arrival benefit accounting.
  const netsim::SimTime bucket_us = netsim::UsFromSeconds(config.curve_bucket_s);
  const std::size_t curve_buckets =
      static_cast<std::size_t>(trace.duration_us / bucket_us) + 1;
  result.curve.resize(curve_buckets);
  std::vector<double> curve_benefit_bytes(curve_buckets, 0.0);
  double total_bytes = 0.0;
  double total_benefit_bytes = 0.0;
  double total_stale_bytes = 0.0;

  workload::LoadTracker load{std::vector<double>(kTmPops, kPopCapacityBps)};
  const workload::LoadAwarePolicy policy;
  workload::EngineConfig wcfg;
  wcfg.tick_s = config.tick_s;
  wcfg.timeseries = config.timeseries;
  wcfg.delta_bus = config.delta_bus;
  wcfg.on_arrival = [&](const workload::FlowEvent& ev) {
    const double bytes = static_cast<double>(ev.bytes);
    const std::size_t bucket = std::min(
        static_cast<std::size_t>(ev.start_us / bucket_us), curve_buckets - 1);
    double benefit_ms = 0.0;
    bool stale = false;
    if (ev.ug < resolvers.resolver_of_ug.size()) {
      const std::uint32_t r = resolvers.resolver_of_ug[ev.ug];
      const std::uint64_t version = ttl.VersionOf(r);
      if (ev.ug < instance.UgCount()) {
        benefit_ms = version_benefit[version][ev.ug];
      }
      stale = ttl.IsStale(r);
    }
    result.curve[bucket].bytes += bytes;
    curve_benefit_bytes[bucket] += bytes * benefit_ms;
    total_bytes += bytes;
    total_benefit_bytes += bytes * benefit_ms;
    if (stale) {
      result.curve[bucket].stale_bytes += bytes;
      total_stale_bytes += bytes;
    }
  };
  std::optional<workload::WorkloadEngine> engine;
  std::optional<workload::ShardedWorkloadReplay> replay;
  if (config.shards == 0) {
    engine.emplace(sim, edge, tunnel_pop, load, policy, trace, wcfg);
  } else {
    workload::ShardedReplayConfig scfg;
    scfg.shards = config.shards;
    scfg.engine = wcfg;
    replay.emplace(sim, edge, tunnel_pop, load, policy, trace,
                   std::move(scfg));
  }

  edge.Start();
  if (engine.has_value()) {
    engine->Start();
  } else {
    replay->Start();
  }
  ttl.Start(horizon_s);
  rounds.Start();
  if (config.timeseries != nullptr) {
    ttl.RegisterTimeseries(*config.timeseries);
    config.timeseries->StartSampling(sim, horizon_s);
  }
  if (engine.has_value()) {
    sim.Run(horizon_s);
  } else {
    // The replay runs the control simulator and the shard simulators in
    // epoch lock-step; on_arrival fires at barriers, in global trace order,
    // against TTL/round state frozen at the tick boundary.
    replay->Run(horizon_s);
  }

  // --- Reduce.
  for (std::size_t b = 0; b < curve_buckets; ++b) {
    result.curve[b].t_s =
        static_cast<double>(b) * netsim::SecondsFromUs(bucket_us);
    result.curve[b].benefit_ms = result.curve[b].bytes > 0.0
                                     ? curve_benefit_bytes[b] /
                                           result.curve[b].bytes
                                     : 0.0;
  }
  result.weighted_benefit_ms =
      total_bytes > 0.0 ? total_benefit_bytes / total_bytes : 0.0;
  result.static_mean_benefit_ms =
      result.rounds.empty() ? 0.0 : result.rounds.back().realized_ms;
  result.stale_byte_frac =
      total_bytes > 0.0 ? total_stale_bytes / total_bytes : 0.0;
  result.trace_checksum = workload::TraceChecksum(trace);
  result.workload = engine.has_value() ? engine->stats() : replay->stats();
  result.ttl = ttl.stats();
  // Sharded mode: control events + epoch count. Per-shard tick-event counts
  // depend on the partition, but the control timeline and the barrier count
  // are pure functions of (config, horizon) — shard-count-invariant, so the
  // canonical summary stays byte-identical across --shards values.
  result.executed_events =
      engine.has_value() ? sim.ExecutedEvents()
                         : sim.ExecutedEvents() + replay->des().stats().epochs;
  result.resolver_count = resolvers.resolver_count;
  result.ug_count = instance.UgCount();
  return result;
}

std::string CanonicalSummary(const UnifiedTimelineResult& result) {
  std::string out;
  out.reserve(4096);
  Append(out, "rounds", static_cast<std::uint64_t>(result.rounds.size()));
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const auto& r = result.rounds[i];
    const std::string p = "round" + std::to_string(i) + ".";
    Append(out, (p + "t_s").c_str(), r.t_s);
    Append(out, (p + "predicted_mean_ms").c_str(), r.predicted_mean_ms);
    Append(out, (p + "realized_ms").c_str(), r.realized_ms);
    Append(out, (p + "realized_positive_ms").c_str(), r.realized_positive_ms);
    Append(out, (p + "prefixes_used").c_str(),
           static_cast<std::uint64_t>(r.prefixes_used));
  }
  Append(out, "curve_points",
         static_cast<std::uint64_t>(result.curve.size()));
  for (std::size_t i = 0; i < result.curve.size(); ++i) {
    const auto& c = result.curve[i];
    const std::string p = "curve" + std::to_string(i) + ".";
    Append(out, (p + "t_s").c_str(), c.t_s);
    Append(out, (p + "bytes").c_str(), c.bytes);
    Append(out, (p + "benefit_ms").c_str(), c.benefit_ms);
    Append(out, (p + "stale_bytes").c_str(), c.stale_bytes);
  }
  Append(out, "weighted_benefit_ms", result.weighted_benefit_ms);
  Append(out, "static_mean_benefit_ms", result.static_mean_benefit_ms);
  Append(out, "stale_byte_frac", result.stale_byte_frac);
  Append(out, "trace_checksum", result.trace_checksum);
  Append(out, "workload.arrivals", result.workload.arrivals);
  Append(out, "workload.started", result.workload.started);
  Append(out, "workload.rejected", result.workload.rejected);
  Append(out, "workload.completed", result.workload.completed);
  Append(out, "workload.peak_concurrent", result.workload.peak_concurrent);
  Append(out, "workload.down_picks", result.workload.down_picks);
  Append(out, "workload.max_tick_skew_us", result.workload.max_tick_skew_us);
  Append(out, "ttl.refreshes", result.ttl.refreshes);
  Append(out, "ttl.version_updates", result.ttl.version_updates);
  Append(out, "executed_events",
         static_cast<std::uint64_t>(result.executed_events));
  Append(out, "resolver_count",
         static_cast<std::uint64_t>(result.resolver_count));
  Append(out, "ug_count", static_cast<std::uint64_t>(result.ug_count));
  return out;
}

}  // namespace painter::timeline
