// Unified-timeline regression suite (DESIGN.md §11).
//
// Pins the three properties the integer-µs clock was built for:
//  - tick/bucket alignment: replay ticks sit exactly on the absolute
//    expiry-bucket grid over arbitrarily long traces (the old relative
//    rescheduling accumulated float error, so tick N fired at a drifted
//    sum while BucketOf indexed the exact grid — max_tick_skew_us > 0);
//  - exact boundary admission: an arrival due precisely on a tick boundary
//    is admitted in that tick (the old `trunc(Now()*1e6)` read 999999 for a
//    1.0 s boundary reached through ten 0.1 s steps, admitting one tick
//    late);
//  - same-seed byte identity of the unified timeline across reruns, plus
//    Learn() == LearningTimeline report equivalence and TTL refresh
//    staleness convergence.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/learning_timeline.h"
#include "core/orchestrator.h"
#include "core/problem.h"
#include "core/sim_environment.h"
#include "cloudsim/deployment.h"
#include "cloudsim/ingress.h"
#include "dnssim/ttl_cache.h"
#include "measure/latency.h"
#include "netsim/path.h"
#include "netsim/sim.h"
#include "obs/metrics.h"
#include "tests/json_test_util.h"
#include "tests/world_fixture.h"
#include "timeline/unified.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"
#include "topo/generator.h"
#include "util/hashmix.h"
#include "util/rng.h"
#include "workload/load.h"
#include "workload/sharded_engine.h"
#include "workload/trace.h"

namespace painter {
namespace {

// Minimal TM world for replay tests: 4 tunnels over 2 PoPs, fixed delays.
struct EngineWorld {
  netsim::Simulator sim;
  std::vector<std::unique_ptr<tm::TmPop>> pops;
  std::unique_ptr<tm::TmEdge> edge;
  std::vector<int> tunnel_pop;
  workload::LoadTracker load{std::vector<double>(2, 1e9)};
  workload::LatencyOnlyPolicy policy;
};

std::unique_ptr<EngineWorld> MakeEngineWorld(std::uint64_t seed) {
  auto w = std::make_unique<EngineWorld>();
  for (std::size_t p = 0; p < 2; ++p) {
    w->pops.push_back(std::make_unique<tm::TmPop>(
        w->sim, "PoP-" + std::to_string(p),
        std::vector<netsim::IpAddr>{
            0x02020202u + 0x01010101u * static_cast<netsim::IpAddr>(p)}));
  }
  std::vector<tm::TunnelConfig> tunnels;
  for (std::size_t i = 0; i < 4; ++i) {
    const int pop = static_cast<int>(i % 2);
    tunnels.push_back(tm::TunnelConfig{
        .name = "tunnel-" + std::to_string(i),
        .remote_ip = 0x0a0a0a00u + static_cast<netsim::IpAddr>(i),
        .path = netsim::PathModel::Fixed(0.010 +
                                         0.002 * static_cast<double>(i)),
        .pop = w->pops[static_cast<std::size_t>(pop)].get()});
    w->tunnel_pop.push_back(pop);
  }
  tm::TmEdge::Config ecfg;
  ecfg.seed = seed;
  ecfg.probe_interval_s = 0.050;
  w->edge = std::make_unique<tm::TmEdge>(w->sim, ecfg, std::move(tunnels));
  return w;
}

TEST(WorkloadTickGrid, LongTraceStaysOnAbsoluteGridWithExactCounts) {
  // An hour of trace at a 100 ms tick = 36k+ ticks. Under the old relative
  // rescheduling, tick N fired at an accumulated float sum (off-grid after
  // a few thousand ticks); max_tick_skew_us pins the absolute grid.
  workload::TraceConfig tc;
  tc.seed = 91;
  tc.duration_s = 3600.0;
  tc.mean_flows_per_s = 30.0;
  const auto profiles = workload::SyntheticUgProfiles(64, tc.seed);
  const workload::Trace trace = workload::GenerateTrace(tc, profiles);
  ASSERT_GT(trace.events.size(), 50'000u);

  auto w = MakeEngineWorld(5);
  workload::ShardedReplayConfig cfg;
  cfg.engine.tick_s = 0.1;
  workload::ShardedWorkloadReplay replay{w->sim,  *w->edge,  w->tunnel_pop,
                                         w->load, w->policy, trace,
                                         cfg};
  w->edge->Start();
  replay.Start();
  replay.Run(tc.duration_s + 700.0);

  const auto& s = replay.stats();
  EXPECT_EQ(s.max_tick_skew_us, 0u);
  // Every trace event consumed, every admitted flow eventually expired.
  EXPECT_EQ(s.arrivals, trace.events.size());
  EXPECT_EQ(s.started + s.rejected, s.arrivals);
  EXPECT_EQ(s.completed, s.started);
  EXPECT_EQ(s.down_picks, 0u);
}

TEST(WorkloadTickGrid, BoundaryArrivalAdmittedInItsExactTick) {
  // Arrivals placed exactly on tick boundaries. The replay admits with
  // `start_us <= NowUs()` on the integer clock, so each must be admitted at
  // precisely its own boundary — the old float path (ten 0.1 s hops sum to
  // 0.9999999999999999, truncated to 999999 µs) admitted the 1.0 s arrival
  // one full tick late. on_arrival runs at the barrier of the admitting
  // tick, where the control clock reads the tick boundary.
  workload::Trace trace;
  trace.seed = 1;
  trace.duration_us = 3'000'000;
  trace.events = {
      workload::FlowEvent{.start_us = 1'000'000, .ug = 0, .seq = 0,
                          .bytes = 10'000},
      workload::FlowEvent{.start_us = 2'000'000, .ug = 1, .seq = 0,
                          .bytes = 10'000},
      workload::FlowEvent{.start_us = 2'100'000, .ug = 2, .seq = 0,
                          .bytes = 10'000},
  };

  auto w = MakeEngineWorld(6);
  workload::ShardedReplayConfig cfg;
  cfg.engine.tick_s = 0.1;
  std::vector<std::uint64_t> admit_at_us;
  cfg.engine.on_arrival = [&](const workload::FlowEvent&) {
    admit_at_us.push_back(w->sim.NowUs());
  };
  workload::ShardedWorkloadReplay replay{w->sim,  *w->edge,  w->tunnel_pop,
                                         w->load, w->policy, trace,
                                         cfg};
  w->edge->Start();
  replay.Start();
  replay.Run(10.0);

  // Admission tick time == arrival time, exactly, for on-grid arrivals.
  ASSERT_EQ(admit_at_us.size(), 3u);
  EXPECT_EQ(admit_at_us[0], 1'000'000u);
  EXPECT_EQ(admit_at_us[1], 2'000'000u);
  EXPECT_EQ(admit_at_us[2], 2'100'000u);
  EXPECT_EQ(replay.stats().started, 3u);
  EXPECT_EQ(replay.stats().max_tick_skew_us, 0u);
  EXPECT_EQ(replay.stats().completed, replay.stats().started);
}

TEST(TtlCacheTest, ResolversConvergeWithinOneTtlOfPublish) {
  netsim::Simulator sim;
  dnssim::TtlCacheConfig cfg;
  cfg.ttl_s = 10.0;
  cfg.seed = 3;
  dnssim::TtlCache cache{sim, 16, cfg};
  cache.Start(100.0);

  sim.Run(20.0);
  for (std::uint32_t r = 0; r < 16; ++r) EXPECT_EQ(cache.VersionOf(r), 0u);

  cache.Publish(1);
  std::size_t stale_now = 0;
  for (std::uint32_t r = 0; r < 16; ++r) stale_now += cache.IsStale(r);
  EXPECT_EQ(stale_now, 16u);  // nobody sees it before a refresh

  sim.Run(30.0 + 1e-5);  // one full TTL later every cache refreshed
  for (std::uint32_t r = 0; r < 16; ++r) {
    EXPECT_EQ(cache.VersionOf(r), 1u) << "resolver " << r;
    EXPECT_FALSE(cache.IsStale(r));
  }
  // Refresh events sit on the per-resolver absolute grid: in [0, 30] each
  // of the 16 resolvers fires 3 or 4 times depending on phase.
  EXPECT_GE(cache.stats().refreshes, 16u * 3u);
  EXPECT_LE(cache.stats().refreshes, 16u * 4u);
  EXPECT_EQ(cache.stats().version_updates, 16u);
}

core::ProblemInstance SmallInstance(topo::Internet& internet,
                                    const cloudsim::Deployment& deployment,
                                    const cloudsim::PolicyCatalog& catalog,
                                    const cloudsim::IngressResolver& resolver,
                                    const measure::LatencyOracle& oracle) {
  util::Rng rng{util::MixSeed(77, 0x1D5Au)};
  return core::BuildMeasuredInstance(internet, deployment, catalog, resolver,
                                     oracle, rng);
}

TEST(LearningTimelineTest, EventDrivenRoundsMatchLearnBitForBit) {
  topo::InternetConfig icfg;
  icfg.seed = 77;
  icfg.tier1_count = 8;
  icfg.transit_count = 10;
  icfg.regional_count = 20;
  icfg.stub_count = 60;
  topo::Internet internet = topo::GenerateInternet(icfg);
  cloudsim::DeploymentConfig dcfg;
  dcfg.seed = 78;
  dcfg.pop_count = 5;
  const cloudsim::Deployment deployment =
      cloudsim::BuildDeployment(internet, dcfg);
  const cloudsim::PolicyCatalog catalog{internet, deployment};
  const cloudsim::IngressResolver resolver{internet, deployment};
  measure::OracleConfig ocfg;
  ocfg.seed = 79;
  const measure::LatencyOracle oracle{internet, deployment, ocfg};
  const core::ProblemInstance instance =
      SmallInstance(internet, deployment, catalog, resolver, oracle);

  core::OrchestratorConfig orch_cfg;
  orch_cfg.prefix_budget = 8;
  orch_cfg.max_learning_iterations = 4;

  // Classic external loop.
  core::Orchestrator a{instance, orch_cfg};
  core::SimEnvironment env_a{resolver, oracle, util::Rng{31}};
  const auto loop_reports = a.Learn(env_a);

  // Event-driven rounds on a simulator clock, same seeds.
  core::Orchestrator b{instance, orch_cfg};
  core::SimEnvironment env_b{resolver, oracle, util::Rng{31}};
  netsim::Simulator sim;
  core::LearningTimelineConfig ltcfg;
  ltcfg.start_s = 5.0;
  ltcfg.round_interval_s = 60.0;
  core::LearningTimeline timeline{sim, b, env_b, ltcfg};
  timeline.Start();
  sim.Run(5.0 + 60.0 * static_cast<double>(orch_cfg.max_learning_iterations));

  ASSERT_TRUE(timeline.Finished());
  const auto& event_reports = timeline.reports();
  ASSERT_EQ(event_reports.size(), loop_reports.size());
  for (std::size_t i = 0; i < loop_reports.size(); ++i) {
    EXPECT_EQ(event_reports[i].realized_ms, loop_reports[i].realized_ms) << i;
    EXPECT_EQ(event_reports[i].realized_positive_ms,
              loop_reports[i].realized_positive_ms)
        << i;
    EXPECT_EQ(event_reports[i].predicted.mean_ms,
              loop_reports[i].predicted.mean_ms)
        << i;
    EXPECT_EQ(event_reports[i].prefixes_used, loop_reports[i].prefixes_used)
        << i;
  }
}

// A re-armed timeline numbers each episode's `orchestrator.learn.iterN.*`
// gauges by the episode's round, as Learn() numbers its iterations: after two
// episodes of k rounds the export holds iter0 to iter(k-1) and no iterk. The
// round callback keeps the timeline's global round index.
TEST(LearningTimelineTest, ReArmedEpisodeNumbersIterationGaugesFromZero) {
  constexpr std::size_t kRounds = 2;
  const test::World& w = test::SharedWorld();
  const core::ProblemInstance instance = test::MakeInstance(w);
  core::OrchestratorConfig orch_cfg;
  orch_cfg.prefix_budget = 4;
  orch_cfg.max_learning_iterations = 10;
  orch_cfg.learning_patience = 10;  // only the episode cap ends an episode
  core::Orchestrator orch{instance, orch_cfg};
  core::SimEnvironment env{*w.resolver, *w.oracle, util::Rng{9}};
  netsim::Simulator sim;
  core::LearningTimelineConfig ltcfg;
  ltcfg.round_interval_s = 10.0;
  ltcfg.max_rounds_per_episode = kRounds;
  std::vector<std::size_t> callback_rounds;
  core::LearningTimeline timeline{
      sim, orch, env, ltcfg,
      [&](std::size_t round, const auto&, const auto&) {
        callback_rounds.push_back(round);
      }};

  obs::Metrics().ResetValues();
  for (int episode = 0; episode < 2; ++episode) {
    timeline.Start();
    sim.Run(sim.Now() + 10.0 * kRounds);
    ASSERT_TRUE(timeline.Finished()) << "episode " << episode;
    ASSERT_EQ(timeline.EpisodeRounds(), kRounds) << "episode " << episode;
  }
  EXPECT_EQ(timeline.RoundsRun(), 2 * kRounds);
  EXPECT_EQ(callback_rounds, (std::vector<std::size_t>{0, 1, 2, 3}));

  const test::JsonValue doc = test::ParseJson(obs::Metrics().ToJson());
  const test::JsonValue& gauges = doc.At("gauges");
  for (std::size_t iter = 0; iter <= kRounds; ++iter) {
    const std::string name =
        "orchestrator.learn.iter" + std::to_string(iter) + ".realized_ms";
    EXPECT_EQ(gauges.Has(name), iter < kRounds) << name;
  }
  EXPECT_DOUBLE_EQ(
      gauges.At("orchestrator.learn.iter1.realized_ms").AsNumber(),
      timeline.reports().back().realized_ms);
  EXPECT_DOUBLE_EQ(gauges.At("orchestrator.learn.last.iteration").AsNumber(),
                   static_cast<double>(kRounds - 1));
}

timeline::UnifiedTimelineConfig TinyTimelineConfig() {
  timeline::UnifiedTimelineConfig cfg;
  cfg.seed = 13;
  cfg.stubs = 60;
  cfg.pops = 4;
  cfg.transits = 10;
  cfg.regionals = 20;
  cfg.trace_duration_s = 90.0;
  cfg.mean_flows_per_s = 15.0;
  cfg.round_start_s = 5.0;
  cfg.round_interval_s = 30.0;
  cfg.max_rounds = 2;
  cfg.ttl_s = 15.0;
  cfg.curve_bucket_s = 30.0;
  return cfg;
}

TEST(UnifiedTimelineTest, SameSeedByteIdenticalAcrossReruns) {
  const auto base = timeline::RunUnifiedTimeline(TinyTimelineConfig());
  const std::string summary1 = timeline::CanonicalSummary(base);
  ASSERT_FALSE(summary1.empty());

  // The trace really spanned >= 2 advertisement configurations with the
  // tick grid exact and DNS refreshes actually interleaved.
  EXPECT_GE(base.rounds.size(), 2u);
  EXPECT_EQ(base.workload.max_tick_skew_us, 0u);
  EXPECT_GT(base.workload.arrivals, 0u);
  EXPECT_GT(base.ttl.refreshes, 0u);

  const std::string rerun = timeline::CanonicalSummary(
      timeline::RunUnifiedTimeline(TinyTimelineConfig()));
  EXPECT_EQ(summary1, rerun);
}

}  // namespace
}  // namespace painter
