#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/churn.h"
#include "control/config_diff.h"
#include "control/control_plane.h"
#include "control/delta_bus.h"
#include "core/config_io.h"
#include "core/learning_timeline.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "netsim/sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/json_test_util.h"
#include "tests/world_fixture.h"
#include "util/rng.h"

namespace painter::control {
namespace {

using core::AdvertisementConfig;
using util::PeeringId;
using util::UgId;

// ---------------------------------------------------------------- DeltaBus

TEST(DeltaBusTest, DrainsInPublishOrder) {
  DeltaBus bus{8};
  bus.Publish(Delta{DeltaKind::kSession, 10, 1, 1.0});
  bus.Publish(Delta{DeltaKind::kUgLatency, 20, 2, 3.5});
  bus.Publish(Delta{DeltaKind::kSession, 30, 3, 0.0});
  EXPECT_EQ(bus.Size(), 3u);

  std::vector<Delta> out;
  EXPECT_EQ(bus.DrainInto(out), 3u);
  EXPECT_EQ(bus.Size(), 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, DeltaKind::kSession);
  EXPECT_EQ(out[1].kind, DeltaKind::kUgLatency);
  EXPECT_EQ(out[2].kind, DeltaKind::kSession);
  EXPECT_EQ(out[1].id, 2u);
  EXPECT_DOUBLE_EQ(out[1].value, 3.5);
  EXPECT_EQ(out[2].id, 3u);

  EXPECT_EQ(bus.stats().drained, 3u);
  EXPECT_EQ(bus.stats().dropped, 0u);
  EXPECT_EQ(bus.stats().published[static_cast<std::size_t>(DeltaKind::kSession)],
            2u);
  EXPECT_EQ(
      bus.stats().published[static_cast<std::size_t>(DeltaKind::kUgLatency)],
      1u);
}

TEST(DeltaBusTest, OverflowDropsOldest) {
  DeltaBus bus{2};
  bus.Publish(Delta{DeltaKind::kSession, 1, 100, 1.0});
  bus.Publish(Delta{DeltaKind::kSession, 2, 101, 1.0});
  bus.Publish(Delta{DeltaKind::kSession, 3, 102, 1.0});  // evicts id 100
  EXPECT_EQ(bus.Size(), 2u);
  EXPECT_EQ(bus.stats().dropped, 1u);

  std::vector<Delta> out;
  bus.DrainInto(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 101u);
  EXPECT_EQ(out[1].id, 102u);
}

TEST(DeltaBusTest, DrainIntoAppends) {
  DeltaBus bus;
  bus.Publish(Delta{DeltaKind::kUgLatency, 5, 0, 0.5});
  std::vector<Delta> out{Delta{DeltaKind::kSession, 1, 9, 1.0}};
  EXPECT_EQ(bus.DrainInto(out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, DeltaKind::kSession);  // pre-existing entry kept
  EXPECT_EQ(out[1].kind, DeltaKind::kUgLatency);
}

TEST(DeltaBusTest, KindNamesAreDistinct) {
  for (std::size_t a = 0; a < kDeltaKindCount; ++a) {
    for (std::size_t b = a + 1; b < kDeltaKindCount; ++b) {
      EXPECT_STRNE(DeltaKindName(static_cast<DeltaKind>(a)),
                   DeltaKindName(static_cast<DeltaKind>(b)));
    }
  }
}

// -------------------------------------------------------------- ConfigDiff

TEST(ConfigDiffTest, IdenticalConfigsDiffEmpty) {
  AdvertisementConfig a;
  a.AddPrefix({PeeringId{1}, PeeringId{4}});
  a.AddPrefix({PeeringId{2}});
  const ConfigDiff d = DiffConfigs(a, a);
  EXPECT_TRUE(d.Empty());
  EXPECT_EQ(d.FlipCount(), 0u);
}

TEST(ConfigDiffTest, AddAndRemoveAnnouncements) {
  AdvertisementConfig from;
  from.AddPrefix({PeeringId{1}, PeeringId{4}});
  AdvertisementConfig to;
  to.AddPrefix({PeeringId{1}, PeeringId{7}});

  const ConfigDiff d = DiffConfigs(from, to);
  ASSERT_EQ(d.added.size(), 1u);
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.added[0].prefix, 0u);
  EXPECT_EQ(d.added[0].session, PeeringId{7});
  EXPECT_EQ(d.removed[0].session, PeeringId{4});
  EXPECT_EQ(d.FlipCount(), 2u);
}

TEST(ConfigDiffTest, PrefixCountMismatchDiffsAgainstEmpty) {
  AdvertisementConfig from;
  from.AddPrefix({PeeringId{1}});
  AdvertisementConfig to;
  to.AddPrefix({PeeringId{1}});
  to.AddPrefix({PeeringId{2}, PeeringId{3}});

  const ConfigDiff d = DiffConfigs(from, to);
  EXPECT_TRUE(d.removed.empty());
  ASSERT_EQ(d.added.size(), 2u);
  EXPECT_EQ(d.added[0].prefix, 1u);
  EXPECT_EQ(d.added[1].prefix, 1u);
}

TEST(ConfigDiffTest, AttributeChangeIsRemovePlusAdd) {
  AdvertisementConfig from;
  from.AddPrefix({PeeringId{5}});
  AdvertisementConfig to;
  to.AddPrefix({PeeringId{5}},
               {core::SessionAttr{.prepend = 2,
                                  .community = bgpsim::Community::kNone}});

  const ConfigDiff d = DiffConfigs(from, to);
  ASSERT_EQ(d.added.size(), 1u);
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.added[0].session, PeeringId{5});
  EXPECT_EQ(d.removed[0].session, PeeringId{5});
  EXPECT_EQ(d.added[0].attr.prepend, 2);
  EXPECT_EQ(d.removed[0].attr.prepend, 0);
}

TEST(ConfigDiffTest, DiffToStringRoundtrip) {
  AdvertisementConfig from;
  from.AddPrefix({PeeringId{4}});
  AdvertisementConfig to;
  to.AddPrefix({PeeringId{7}});
  const std::string s = DiffToString(DiffConfigs(from, to));
  EXPECT_NE(s.find("+p0:s7"), std::string::npos);
  EXPECT_NE(s.find("-p0:s4"), std::string::npos);
  EXPECT_EQ(DiffToString(ConfigDiff{}), "(empty)");
}

// -------------------------------------------------------- ChurnEnvironment

// Inner environment that records the configuration it was handed and lands
// UG 0 on the first session of every non-empty prefix at a fixed RTT.
class RecordingEnv final : public core::AdvertisementEnvironment {
 public:
  explicit RecordingEnv(std::size_t ug_count) : ug_count_(ug_count) {}

  std::vector<PrefixObservation> Execute(
      const AdvertisementConfig& config) override {
    last = config;
    std::vector<PrefixObservation> out(config.PrefixCount());
    for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
      out[p].ingress_of_ug.assign(ug_count_, std::nullopt);
      out[p].rtt_ms_of_ug.assign(ug_count_, 0.0);
      if (!config.Sessions(p).empty()) {
        out[p].ingress_of_ug[0] = config.Sessions(p).front();
        out[p].rtt_ms_of_ug[0] = 50.0;
      }
    }
    return out;
  }

  AdvertisementConfig last;

 private:
  std::size_t ug_count_;
};

TEST(ChurnEnvironmentTest, DownSessionStrippedKeepingPrefixAlignment) {
  RecordingEnv inner{4};
  netsim::Simulator sim;
  DeltaBus bus;
  ChurnEnvironment churn{inner, 4, &sim, &bus};

  AdvertisementConfig cfg;
  cfg.AddPrefix({PeeringId{1}, PeeringId{2}});
  cfg.AddPrefix({PeeringId{2}});

  churn.SetPeeringDown(PeeringId{2}, true);
  const auto obs = churn.Execute(cfg);

  ASSERT_EQ(obs.size(), 2u);  // prefix indices preserved
  ASSERT_EQ(inner.last.PrefixCount(), 2u);
  EXPECT_EQ(inner.last.Sessions(0),
            std::vector<PeeringId>{PeeringId{1}});
  EXPECT_TRUE(inner.last.Sessions(1).empty());
  EXPECT_FALSE(obs[1].ingress_of_ug[0].has_value());

  // Restoring brings the session back.
  churn.SetPeeringDown(PeeringId{2}, false);
  (void)churn.Execute(cfg);
  EXPECT_EQ(inner.last.Sessions(1),
            std::vector<PeeringId>{PeeringId{2}});
}

TEST(ChurnEnvironmentTest, PublishesSessionTransitionsOnce) {
  RecordingEnv inner{2};
  netsim::Simulator sim;
  DeltaBus bus;
  ChurnEnvironment churn{inner, 2, &sim, &bus};

  churn.SetPeeringDown(PeeringId{9}, true);
  churn.SetPeeringDown(PeeringId{9}, true);  // no transition, no record
  churn.SetPeeringDown(PeeringId{9}, false);

  std::vector<Delta> out;
  bus.DrainInto(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, DeltaKind::kSession);
  EXPECT_EQ(out[0].id, 9u);
  EXPECT_DOUBLE_EQ(out[0].value, 1.0);
  EXPECT_DOUBLE_EQ(out[1].value, 0.0);
}

TEST(ChurnEnvironmentTest, LatencyOffsetCumulativeAndClamped) {
  RecordingEnv inner{3};
  netsim::Simulator sim;
  DeltaBus bus;
  ChurnEnvironment churn{inner, 3, &sim, &bus};

  AdvertisementConfig cfg;
  cfg.AddPrefix({PeeringId{1}});

  churn.AddUgLatencyOffset(UgId{0}, 10.0);
  auto obs = churn.Execute(cfg);
  EXPECT_DOUBLE_EQ(obs[0].rtt_ms_of_ug[0], 60.0);

  churn.AddUgLatencyOffset(UgId{0}, 5.0);  // cumulative: +15 total
  obs = churn.Execute(cfg);
  EXPECT_DOUBLE_EQ(obs[0].rtt_ms_of_ug[0], 65.0);

  churn.AddUgLatencyOffset(UgId{0}, -200.0);  // would go negative: clamp
  obs = churn.Execute(cfg);
  EXPECT_DOUBLE_EQ(obs[0].rtt_ms_of_ug[0], 0.0);

  std::vector<Delta> out;
  bus.DrainInto(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, DeltaKind::kUgLatency);
  EXPECT_DOUBLE_EQ(out[0].value, 10.0);
  EXPECT_DOUBLE_EQ(out[2].value, 200.0);  // |delta|
}

// --------------------------------------------------- LearningTimeline rearm

class LearningTimelineRearmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const test::World& w = test::SharedWorld(11, 60, 5);
    inst_ = test::MakeInstance(w);
    env_.emplace(*w.resolver, *w.oracle, util::Rng{77});
    core::OrchestratorConfig ocfg;
    ocfg.prefix_budget = 4;
    ocfg.max_learning_iterations = 16;
    orch_.emplace(inst_, ocfg);
  }

  core::ProblemInstance inst_;
  std::optional<core::SimEnvironment> env_;
  std::optional<core::Orchestrator> orch_;
};

TEST_F(LearningTimelineRearmTest, RunsTwoCappedEpisodes) {
  netsim::Simulator sim;
  core::LearningTimelineConfig cfg;
  cfg.start_s = 1.0;
  cfg.round_interval_s = 1.0;
  cfg.max_rounds_per_episode = 2;
  core::LearningTimeline tl{sim, *orch_, *env_, cfg};

  EXPECT_FALSE(tl.Active());
  tl.Start();
  EXPECT_TRUE(tl.Active());
  sim.Run(10.0);
  EXPECT_TRUE(tl.Finished());
  EXPECT_FALSE(tl.Active());
  EXPECT_EQ(tl.EpisodeCount(), 1u);
  EXPECT_LE(tl.EpisodeRounds(), 2u);
  const std::size_t first = tl.RoundsRun();
  EXPECT_GE(first, 1u);

  tl.Start();  // re-arm on the same timeline
  EXPECT_TRUE(tl.Active());
  sim.Run(20.0);
  EXPECT_TRUE(tl.Finished());
  EXPECT_EQ(tl.EpisodeCount(), 2u);
  EXPECT_LE(tl.EpisodeRounds(), 2u);
  EXPECT_GT(tl.RoundsRun(), first);  // the global round count keeps going
}

TEST_F(LearningTimelineRearmTest, ReportsStayBoundedAcrossEpisodes) {
  // An always-on service re-arms its timeline forever: reports() must hold
  // only the current episode, while RoundsRun() still counts every round.
  netsim::Simulator sim;
  core::LearningTimelineConfig cfg;
  cfg.start_s = 1.0;
  cfg.round_interval_s = 1.0;
  cfg.max_rounds_per_episode = 2;
  core::LearningTimeline tl{sim, *orch_, *env_, cfg};

  std::size_t rounds = 0;
  for (int episode = 0; episode < 10; ++episode) {
    tl.Start();
    sim.Run(sim.Now() + 10.0);
    ASSERT_TRUE(tl.Finished()) << episode;
    EXPECT_LE(tl.reports().size(), cfg.max_rounds_per_episode) << episode;
    rounds += tl.reports().size();
    EXPECT_EQ(tl.RoundsRun(), rounds) << episode;
  }
  EXPECT_EQ(tl.EpisodeCount(), 10u);
  EXPECT_GT(tl.RoundsRun(), cfg.max_rounds_per_episode);
}

// The round callback of an episode's last round already reads Finished():
// the control plane closes its `control.episode` span there.
TEST_F(LearningTimelineRearmTest, LastRoundCallbackSeesFinished) {
  netsim::Simulator sim;
  core::LearningTimelineConfig cfg;
  cfg.start_s = 1.0;
  cfg.round_interval_s = 1.0;
  cfg.max_rounds_per_episode = 2;
  std::vector<bool> finished;
  core::LearningTimeline* timeline = nullptr;
  core::LearningTimeline tl{sim, *orch_, *env_, cfg,
                            [&](std::size_t, const auto&, const auto&) {
                              finished.push_back(timeline->Finished());
                            }};
  timeline = &tl;
  for (int episode = 0; episode < 2; ++episode) {
    tl.Start();
    sim.Run(sim.Now() + 10.0);
  }
  EXPECT_EQ(finished, (std::vector<bool>{false, true, false, true}));
}

TEST_F(LearningTimelineRearmTest, StartWhileActiveThrows) {
  netsim::Simulator sim;
  core::LearningTimelineConfig cfg;
  cfg.round_interval_s = 1.0;
  cfg.max_rounds_per_episode = 1;
  core::LearningTimeline tl{sim, *orch_, *env_, cfg};
  tl.Start();
  EXPECT_THROW(tl.Start(), std::logic_error);
  sim.Run(5.0);
  EXPECT_NO_THROW(tl.Start());  // finished episodes re-arm cleanly
  sim.Run(10.0);
}

// ------------------------------------------------------ ControlPlaneService

class ControlPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const test::World& w = test::SharedWorld(11, 60, 5);
    inst_ = test::MakeInstance(w);
    inner_.emplace(*w.resolver, *w.oracle, util::Rng{303});
  }

  core::OrchestratorConfig OrchCfg(bool audit) const {
    core::OrchestratorConfig cfg;
    cfg.prefix_budget = 4;
    cfg.max_learning_iterations = 16;
    cfg.cross_call_seed_cache = true;
    cfg.seed_cache_audit = audit;
    // Above the min-of-7 ping jitter: steady-state absorbs leave the
    // cross-call cache warm instead of re-dirtying every observed UG.
    cfg.model_update_epsilon_ms = 1.0;
    return cfg;
  }

  static ControlPlaneConfig ServiceCfg() {
    ControlPlaneConfig cfg;
    cfg.start_s = 1.0;
    cfg.wake_interval_s = 2.0;
    cfg.round_interval_s = 1.0;
    cfg.max_rounds_per_episode = 2;
    cfg.cooldown_s = 5.0;
    return cfg;
  }

  core::ProblemInstance inst_;
  std::optional<core::SimEnvironment> inner_;
};

TEST_F(ControlPlaneTest, BootstrapsToNonEmptyCommit) {
  netsim::Simulator sim;
  core::Orchestrator orch{inst_, OrchCfg(false)};
  DeltaBus bus;
  ChurnEnvironment churn{*inner_, inst_.UgCount(), &sim, &bus};
  ControlPlaneService svc{sim, orch, churn, bus, ServiceCfg()};

  svc.Start();
  sim.Run(30.0);

  EXPECT_GE(svc.stats().wakes, 2u);
  EXPECT_GE(svc.stats().episodes_triggered, 1u);
  EXPECT_GE(svc.stats().commits_applied, 1u);
  EXPECT_GT(svc.committed().NonEmptyPrefixCount(), 0u);
  ASSERT_FALSE(svc.rounds().empty());
  EXPECT_TRUE(svc.rounds().front().committed);  // bootstrap diff vs empty
  EXPECT_GT(svc.rounds().front().flips, 0u);
}

// With tracing on, every finished episode is one `control.episode` span and
// every round's plan one `orchestrator.model_view` span.
TEST_F(ControlPlaneTest, TracesEachEpisodeAndViewRefresh) {
  const std::string path = ::testing::TempDir() + "control_episode_trace.json";
  netsim::Simulator sim;
  core::Orchestrator orch{inst_, OrchCfg(false)};
  DeltaBus bus;
  ChurnEnvironment churn{*inner_, inst_.UgCount(), &sim, &bus};
  ControlPlaneService svc{sim, orch, churn, bus, ServiceCfg()};
  obs::TraceSink::Enable(path);
  svc.Start();
  sim.Run(30.0);
  obs::TraceSink::Disable();

  std::ifstream in{path};
  std::stringstream text;
  text << in.rdbuf();
  std::size_t episodes = 0;
  std::size_t refreshes = 0;
  const test::JsonValue doc = test::ParseJson(text.str());
  for (const test::JsonValue& e : doc.AsArray()) {
    const std::string& name = e.At("name").AsString();
    if (name == "control.episode") {
      ++episodes;
      EXPECT_GE(e.At("dur").AsNumber(), 0.0);
    }
    if (name == "orchestrator.model_view") ++refreshes;
  }
  ASSERT_GE(svc.stats().episodes_triggered, 2u);
  EXPECT_EQ(episodes, svc.stats().episodes_triggered -
                          (svc.timeline().Active() ? 1u : 0u));
  EXPECT_EQ(refreshes, svc.stats().rounds_run);
}

TEST_F(ControlPlaneTest, ReactsToSessionLossWithoutFullRecompute) {
  netsim::Simulator sim;
  core::Orchestrator orch{inst_, OrchCfg(true)};
  DeltaBus bus;
  ChurnEnvironment churn{*inner_, inst_.UgCount(), &sim, &bus};
  // Generous flip budget so hysteresis never defers the compensating commit;
  // dirty-driven episodes stay on (default min_dirty_ugs) so the model
  // converges before the fault and the cross-call cache is warm.
  ControlPlaneConfig cfg = ServiceCfg();
  cfg.max_commits_per_window = 100;
  ControlPlaneService svc{sim, orch, churn, bus, cfg};

  const auto checks0 = obs::Metrics()
                           .GetCounter("orchestrator.celf.seed_cache_audit_checks")
                           .Value();
  const auto mismatch0 =
      obs::Metrics()
          .GetCounter("orchestrator.celf.seed_cache_audit_mismatches")
          .Value();
  const auto hits0 =
      obs::Metrics().GetCounter("orchestrator.celf.cross_seed_hits").Value();

  svc.Start();
  // Long enough for the learning episodes to converge the model (the config
  // stabilizes and per-round dirtiness drops to ping-spike noise).
  sim.Run(60.0);
  ASSERT_GE(svc.stats().commits_applied, 1u);
  const auto episodes_before = svc.stats().episodes_triggered;

  // Kill a session the committed schedule actually uses: the loss must be
  // urgent (it touches live catchments) and the compensating commit must
  // exclude it.
  PeeringId victim;
  for (std::size_t p = 0; p < svc.committed().PrefixCount() && !victim.valid();
       ++p) {
    if (!svc.committed().Sessions(p).empty()) {
      victim = svc.committed().Sessions(p).front();
    }
  }
  ASSERT_TRUE(victim.valid());
  churn.SetPeeringDown(victim, true);

  sim.Run(90.0);

  EXPECT_GT(svc.stats().episodes_triggered, episodes_before);
  EXPECT_GT(svc.stats().urgent_deltas, 0u);
  EXPECT_GE(svc.stats().invalidated_peerings, 1u);
  ASSERT_FALSE(svc.reaction_latencies_ms().empty());
  for (const double ms : svc.reaction_latencies_ms()) {
    EXPECT_GT(ms, 0.0);
    // Answered within one wake interval plus a full episode.
    EXPECT_LE(ms, (cfg.wake_interval_s + cfg.round_interval_s * 3) * 1000.0);
  }
  for (std::size_t p = 0; p < svc.committed().PrefixCount(); ++p) {
    EXPECT_FALSE(svc.committed().Contains(p, victim));
  }
  EXPECT_FALSE(orch.PeeringAvailable(victim));

  // Every incremental round was byte-audited against a full recompute, with
  // zero mismatches, and at least one round actually reused cached seeds.
  const auto checks =
      obs::Metrics()
          .GetCounter("orchestrator.celf.seed_cache_audit_checks")
          .Value() -
      checks0;
  const auto mismatches =
      obs::Metrics()
          .GetCounter("orchestrator.celf.seed_cache_audit_mismatches")
          .Value() -
      mismatch0;
  const auto hits =
      obs::Metrics().GetCounter("orchestrator.celf.cross_seed_hits").Value() -
      hits0;
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(hits, 0u);
}

TEST_F(ControlPlaneTest, HysteresisSuppressesExcessCommits) {
  netsim::Simulator sim;
  core::Orchestrator orch{inst_, OrchCfg(false)};
  DeltaBus bus;
  ChurnEnvironment churn{*inner_, inst_.UgCount(), &sim, &bus};

  ControlPlaneConfig cfg = ServiceCfg();
  cfg.max_commits_per_window = 1;
  cfg.commit_window_s = 10000.0;  // window never slides off within the run
  ControlPlaneService svc{sim, orch, churn, bus, cfg};

  svc.Start();
  sim.Run(30.0);
  ASSERT_EQ(svc.stats().commits_applied, 1u);  // bootstrap used the budget

  // Urgent churn forces more episodes whose diffs must now be suppressed.
  PeeringId victim;
  for (std::size_t p = 0; p < svc.committed().PrefixCount() && !victim.valid();
       ++p) {
    if (!svc.committed().Sessions(p).empty()) {
      victim = svc.committed().Sessions(p).front();
    }
  }
  ASSERT_TRUE(victim.valid());
  churn.SetPeeringDown(victim, true);
  sim.Run(60.0);

  EXPECT_EQ(svc.stats().commits_applied, 1u);
  EXPECT_GE(svc.stats().commits_suppressed, 1u);
  // The suppressed diff changed nothing: the victim stays in the committed
  // schedule until the flip budget allows the compensation.
  bool still_committed = false;
  for (std::size_t p = 0; p < svc.committed().PrefixCount(); ++p) {
    still_committed = still_committed || svc.committed().Contains(p, victim);
  }
  EXPECT_TRUE(still_committed);
}

TEST_F(ControlPlaneTest, QuietWorldTriggersOnlyBootstrap) {
  netsim::Simulator sim;
  core::Orchestrator orch{inst_, OrchCfg(false)};
  DeltaBus bus;
  ChurnEnvironment churn{*inner_, inst_.UgCount(), &sim, &bus};
  // Dirty-count triggering off: only urgency or bootstrap can start an
  // episode, and this world produces neither after the first commit.
  ControlPlaneConfig cfg = ServiceCfg();
  cfg.min_dirty_ugs = static_cast<std::size_t>(-1);
  ControlPlaneService svc{sim, orch, churn, bus, cfg};

  svc.Start();
  sim.Run(120.0);

  // No deltas ever arrive: after the bootstrap episode the service idles.
  EXPECT_EQ(svc.stats().episodes_triggered, 1u);
  EXPECT_EQ(svc.stats().deltas_consumed, 0u);
  EXPECT_GE(svc.stats().wakes, 50u);
}

TEST_F(ControlPlaneTest, CanonicalStatsByteIdenticalAcrossReruns) {
  const auto run_once = [&]() {
    netsim::Simulator sim;
    core::Orchestrator orch{inst_, OrchCfg(false)};
    DeltaBus bus;
    core::SimEnvironment inner{*test::SharedWorld(11, 60, 5).resolver,
                               *test::SharedWorld(11, 60, 5).oracle,
                               util::Rng{303}};
    ChurnEnvironment churn{inner, inst_.UgCount(), &sim, &bus};
    ControlPlaneService svc{sim, orch, churn, bus, ServiceCfg()};
    svc.Start();
    sim.Schedule(12.0, [&]() { churn.AddUgLatencyOffset(UgId{0}, 25.0); });
    sim.Schedule(20.0, [&]() { churn.SetPeeringDown(PeeringId{0}, true); });
    sim.Run(60.0);
    return svc.CanonicalStats();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("commits="), std::string::npos);
}

TEST_F(ControlPlaneTest, ZeroWakeIntervalThrows) {
  netsim::Simulator sim;
  core::Orchestrator orch{inst_, OrchCfg(false)};
  DeltaBus bus;
  ChurnEnvironment churn{*inner_, inst_.UgCount(), &sim, &bus};
  ControlPlaneConfig cfg = ServiceCfg();
  cfg.wake_interval_s = 0.0;
  EXPECT_THROW(
      (ControlPlaneService{sim, orch, churn, bus, cfg}),
      std::invalid_argument);
}

}  // namespace
}  // namespace painter::control
