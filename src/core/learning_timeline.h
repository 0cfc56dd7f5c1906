// Event-driven advertisement rounds on the shared DES timeline.
//
// Orchestrator::Learn() runs its iterations back-to-back in an external
// loop — fine for pure optimization studies, but it gives advertisement
// changes no place on the simulated clock, so nothing else (workload ticks,
// DNS TTL refreshes, fault plans) can interleave with them. LearningTimeline
// puts each round where it belongs: round k is a simulator event at exactly
// start + k * round_interval on the absolute integer-µs grid (DESIGN.md §11),
// and the next round is scheduled only while Orchestrator::LearningComplete
// says the loop should continue. The iteration body and termination rule are
// the same code Learn() calls, so the report sequence is bit-identical to
// Learn() on the same orchestrator and environment — the golden tests pin
// this equivalence.
//
// The round callback fires after each iteration with the report and the raw
// environment observations; the unified timeline uses it to publish the new
// configuration version to the TTL cache layer, which is how DNS staleness
// lag between "advertised" and "clients actually steered" becomes visible.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/orchestrator.h"
#include "netsim/sim.h"

namespace painter::obs {
class TimeseriesRegistry;
}  // namespace painter::obs

namespace painter::core {

struct LearningTimelineConfig {
  double start_s = 0.0;           // first round, relative to Start()
  double round_interval_s = 60.0; // spacing between advertisement rounds
  // Cap on rounds per episode (one Start()..Finished() run). 0 = no cap:
  // the episode ends when Orchestrator::LearningComplete fires over the
  // episode's own reports. The control plane uses a small cap as the time
  // budget of one reaction.
  std::size_t max_rounds_per_episode = 0;
  // Optional streaming telemetry: each completed round appends one point to
  // the `orchestrator.round.predicted_ms` and `orchestrator.round.realized_ms`
  // event series, stamped at the round's simulator time. The registry must
  // outlive the timeline; null records nothing.
  obs::TimeseriesRegistry* timeseries = nullptr;
};

class LearningTimeline {
 public:
  // (global round index, that round's report, raw per-prefix observations).
  using RoundCallback = std::function<void(
      std::size_t, const Orchestrator::IterationReport&,
      const std::vector<AdvertisementEnvironment::PrefixObservation>&)>;

  // All references must outlive the timeline. Rounds draw no randomness of
  // their own; determinism is inherited from the orchestrator/environment.
  LearningTimeline(netsim::Simulator& sim, Orchestrator& orchestrator,
                   AdvertisementEnvironment& env, LearningTimelineConfig config,
                   RoundCallback on_round = {});

  // Arms an episode: schedules its round 0 at Now() + start_s; each
  // completed round schedules its successor on the absolute grid until the
  // orchestrator's LearningComplete fires over the episode's reports (or the
  // per-episode round cap hits). Re-armable: once an episode finishes,
  // Start() may be called again to run another on the same timeline — the
  // callback's round indices and RoundsRun() keep counting globally, while
  // reports(), the termination rule and the `orchestrator.learn.iterN.*`
  // gauges see only the current episode. Throws std::logic_error while an
  // episode is still active.
  void Start();

  // Reports of the current (or just-finished) episode's rounds (== Learn()'s
  // return when a single episode ran to completion). Earlier episodes'
  // reports are dropped at the next Start(), so an always-on timeline holds
  // O(rounds per episode) reports, not O(simulated time).
  [[nodiscard]] const std::vector<Orchestrator::IterationReport>& reports()
      const {
    return reports_;
  }
  // True after the most recent episode terminated (false before the first
  // Start() and while an episode is running). Already true inside the round
  // callback of an episode's last round.
  [[nodiscard]] bool Finished() const { return finished_; }
  // Rounds run so far, across every episode.
  [[nodiscard]] std::size_t RoundsRun() const { return rounds_run_; }
  // True from Start() until the episode's terminating round.
  [[nodiscard]] bool Active() const { return active_; }
  [[nodiscard]] std::size_t EpisodeCount() const { return episodes_; }
  // Rounds run by the current (or just-finished) episode.
  [[nodiscard]] std::size_t EpisodeRounds() const { return reports_.size(); }

 private:
  void RunRound();

  netsim::Simulator* sim_;
  Orchestrator* orchestrator_;
  AdvertisementEnvironment* env_;
  LearningTimelineConfig config_;
  RoundCallback on_round_;
  netsim::SimTime anchor_us_ = 0;  // grid origin: latest Start() + start_s
  netsim::SimTime interval_us_ = 0;
  // Reports of the current episode only — the termination rule's input, so
  // a fresh episode is not instantly "complete" because of past rounds.
  std::vector<Orchestrator::IterationReport> reports_;
  std::size_t rounds_run_ = 0;  // global round index of the next round
  bool finished_ = false;
  bool active_ = false;
  std::size_t episodes_ = 0;
};

}  // namespace painter::core
