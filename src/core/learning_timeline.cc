#include "core/learning_timeline.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace painter::core {

LearningTimeline::LearningTimeline(netsim::Simulator& sim,
                                   Orchestrator& orchestrator,
                                   AdvertisementEnvironment& env,
                                   LearningTimelineConfig config,
                                   RoundCallback on_round)
    : sim_(&sim),
      orchestrator_(&orchestrator),
      env_(&env),
      config_(config),
      on_round_(std::move(on_round)),
      interval_us_(netsim::UsFromSeconds(config.round_interval_s)) {
  if (interval_us_ == 0) {
    throw std::invalid_argument{
        "LearningTimeline: round_interval_s below 1 microsecond"};
  }
}

void LearningTimeline::Start() {
  if (active_) {
    throw std::logic_error{
        "LearningTimeline::Start: episode already active (re-arm only after "
        "Finished())"};
  }
  active_ = true;
  finished_ = false;
  ++episodes_;
  reports_.clear();
  anchor_us_ = sim_->NowUs() + netsim::UsFromSeconds(config_.start_s);
  sim_->ScheduleAtUs(anchor_us_, [this]() { RunRound(); });
}

void LearningTimeline::RunRound() {
  const std::size_t round = rounds_run_++;
  std::vector<AdvertisementEnvironment::PrefixObservation> observations;
  // The iteration index names the `orchestrator.learn.iterN.*` gauges and
  // unsets the previous run's at 0, so it is the episode's round, as in
  // Learn(); the callback keeps the global round.
  reports_.push_back(orchestrator_->RunLearningIteration(
      *env_, reports_.size(), &observations));
  if (config_.timeseries != nullptr) {
    const Orchestrator::IterationReport& rep = reports_.back();
    config_.timeseries->Append("orchestrator.round.predicted_ms",
                               sim_->NowUs(), rep.predicted.estimated_ms);
    config_.timeseries->Append("orchestrator.round.realized_ms", sim_->NowUs(),
                               rep.realized_ms);
    // Cumulative catchment-pruned seed evaluations after this round: the
    // per-round delta (how much the dirty-UG pruning saved) is the series'
    // slope, which the fig6c pruning phase plots.
    config_.timeseries->Append(
        "orchestrator.round.pruned_seed_evals", sim_->NowUs(),
        static_cast<double>(
            obs::Metrics().CounterValue("celf.pruned.seed_evals")));
  }
  // Episode termination sees only this episode's reports: a re-armed
  // timeline must not be instantly "complete" because of rounds run by past
  // episodes. For a single episode these are all the rounds, so the report
  // sequence stays bit-identical to Learn(). It is decided before the
  // callback, so the callback of an episode's last round reads Finished().
  const bool cap_hit = config_.max_rounds_per_episode > 0 &&
                       reports_.size() >= config_.max_rounds_per_episode;
  const bool done = cap_hit || orchestrator_->LearningComplete(reports_);
  if (done) {
    finished_ = true;
    active_ = false;
  }
  if (on_round_) on_round_(round, reports_.back(), observations);
  if (done) return;
  // The episode's round k+1 at anchor + (k+1) * interval — re-derived from
  // the per-episode round count on the absolute grid, like every other
  // periodic scheduler here.
  sim_->ScheduleAtUs(anchor_us_ + reports_.size() * interval_us_,
                     [this]() { RunRound(); });
}

}  // namespace painter::core
