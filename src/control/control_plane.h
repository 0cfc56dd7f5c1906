// Always-on incremental control plane (DESIGN.md §15).
//
// PAINTER's deployment value is *reacting*: advertisements adapt as ingress
// conditions change, not in one offline batch. ControlPlaneService is that
// feedback loop on the unified DES timeline:
//
//   producers ──deltas──▶ DeltaBus ──wake──▶ translate ──▶ targeted
//   (ChurnEnvironment,              (this      batch        invalidation of
//    tests)                         service)                incremental CELF
//                                      │
//                                      ▼ trigger (urgency / dirtiness,
//                                        damped by cooldown)
//                               bounded re-optimization episode
//                               (re-armed LearningTimeline, ≤ N rounds)
//                                      │
//                                      ▼ per round
//                               config DIFF vs committed schedule,
//                               hysteresis window caps commits → commit or
//                               suppress; commits record reaction latency
//                               (fault onset → compensating advertisement).
//
// The service never recomputes from scratch on its own: rounds ride the
// orchestrator's cross-call seed cache, so a quiet world costs almost
// nothing and a churned world re-evaluates only the dirtied catchments. The
// `seed_cache_audit` orchestrator flag independently asserts every
// incremental round is byte-identical to a full recompute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "control/config_diff.h"
#include "control/delta_bus.h"
#include "core/catchment.h"
#include "core/learning_timeline.h"
#include "core/orchestrator.h"
#include "netsim/sim.h"

namespace painter::obs {
class TimeseriesRegistry;
}  // namespace painter::obs

namespace painter::control {

struct ControlPlaneConfig {
  double start_s = 0.0;          // first wake, relative to Start()
  double wake_interval_s = 5.0;  // bus-drain cadence on the absolute grid
  // Stop rescheduling wakes after this horizon (relative to Start());
  // 0 = keep waking forever, the caller bounds the run with RunUntilUs.
  double horizon_s = 0.0;

  // Episode shape, forwarded to the embedded (re-armable) LearningTimeline:
  // each triggered episode runs at most `max_rounds_per_episode` rounds
  // spaced `round_interval_s` apart — the time budget of one reaction.
  double round_interval_s = 1.0;
  std::size_t max_rounds_per_episode = 2;

  // Trigger damping. An episode starts when the batch carried an URGENT
  // delta (session/topology loss touching a non-empty catchment, or an
  // overloaded PoP) — urgency bypasses the cooldown — or when at least
  // `min_dirty_ugs` UGs are dirty and `cooldown_s` has passed since the last
  // trigger. The bootstrap episode (nothing committed yet) always runs.
  double cooldown_s = 30.0;
  std::size_t min_dirty_ugs = 1;
  // kUgLatency deltas below this magnitude are noise and invalidate nothing.
  double min_latency_delta_ms = 1.0;
  // kPopLoad/kCapacity at or above this utilization are urgent.
  double overload_utilization = 1.0;

  // Hysteresis: at most `max_commits_per_window` commits per sliding
  // `commit_window_s` window; further non-empty diffs are suppressed (the
  // next round re-diffs against the unchanged committed schedule, so nothing
  // is lost — the flip budget is just deferred).
  std::size_t max_commits_per_window = 4;
  double commit_window_s = 60.0;

  // Optional: scopes session-loss urgency to sessions whose catchment is
  // non-empty (a session no UG can ingress through cannot shift traffic).
  const core::CatchmentPredictor* catchment = nullptr;
  // Optional: commits append `control.reaction.latency_ms` /
  // `control.reaction.flips` event series. Must outlive the service.
  obs::TimeseriesRegistry* timeseries = nullptr;
};

class ControlPlaneService {
 public:
  // Fires on every applied commit with the announcement-level diff and the
  // round's report (whose .config is the newly committed schedule).
  using CommitCallback = std::function<void(
      const ConfigDiff&, const core::Orchestrator::IterationReport&)>;

  // All references must outlive the service.
  ControlPlaneService(netsim::Simulator& sim, core::Orchestrator& orchestrator,
                      core::AdvertisementEnvironment& env, DeltaBus& bus,
                      ControlPlaneConfig config, CommitCallback on_commit = {});

  // Schedules the wake chain: wake k at Start() time + start_s + k * interval
  // on the absolute grid. Call once.
  void Start();

  struct Stats {
    std::uint64_t wakes = 0;
    std::uint64_t deltas_consumed = 0;
    std::uint64_t urgent_deltas = 0;
    std::uint64_t invalidated_ugs = 0;       // targeted UG invalidations
    std::uint64_t invalidated_peerings = 0;  // session availability flips
    std::uint64_t full_invalidations = 0;    // topology deltas
    std::uint64_t episodes_triggered = 0;
    std::uint64_t rounds_run = 0;
    std::uint64_t commits_applied = 0;
    std::uint64_t commits_suppressed = 0;  // hysteresis-deferred diffs
    std::uint64_t flips_total = 0;         // announcements added + removed
  };

  struct RoundRecord {
    std::size_t round = 0;  // global round index across episodes
    netsim::SimTime t_us = 0;
    std::size_t flips = 0;  // diff size vs the then-committed schedule
    bool committed = false;
  };

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<RoundRecord>& rounds() const {
    return rounds_;
  }
  // The schedule currently installed in the fabric (empty until bootstrap).
  [[nodiscard]] const core::AdvertisementConfig& committed() const {
    return committed_;
  }
  // Sim-time ms from the earliest pending urgent onset to the commit that
  // answered it, one entry per urgency-answering commit.
  [[nodiscard]] const std::vector<double>& reaction_latencies_ms() const {
    return reaction_ms_;
  }
  [[nodiscard]] const core::LearningTimeline& timeline() const {
    return timeline_;
  }

  // Canonical run summary (%.17g doubles, fixed field order) including every
  // round record and the committed schedule's wire text — byte-identical
  // across reruns of a deterministic scenario; the property tests compare
  // these strings directly.
  [[nodiscard]] std::string CanonicalStats() const;

 private:
  void Wake();
  // Applies one drained batch to orchestrator state. Returns true when the
  // batch carried an urgent delta.
  bool TranslateBatch(const std::vector<Delta>& batch);
  void OnRound(std::size_t round,
               const core::Orchestrator::IterationReport& report);

  netsim::Simulator* sim_;
  core::Orchestrator* orchestrator_;
  DeltaBus* bus_;
  ControlPlaneConfig config_;
  CommitCallback on_commit_;
  core::LearningTimeline timeline_;

  netsim::SimTime anchor_us_ = 0;
  netsim::SimTime wake_us_ = 0;
  std::size_t wake_index_ = 0;

  bool bootstrapped_ = false;   // first episode triggered?
  bool urgent_pending_ = false; // urgency seen but episode not yet started
  netsim::SimTime last_trigger_us_ = 0;
  // Earliest unanswered urgent onset; cleared by the commit that answers it.
  std::optional<netsim::SimTime> pending_onset_us_;

  core::AdvertisementConfig committed_;
  std::deque<netsim::SimTime> commit_times_;  // inside the sliding window
  std::vector<Delta> scratch_;

  Stats stats_;
  std::vector<RoundRecord> rounds_;
  std::vector<double> reaction_ms_;
};

}  // namespace painter::control
