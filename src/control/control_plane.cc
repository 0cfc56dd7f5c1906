#include "control/control_plane.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/config_io.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace painter::control {
namespace {

struct ServiceMetrics {
  obs::Counter& episodes =
      obs::Metrics().GetCounter("control.episodes.triggered");
  obs::Counter& rounds = obs::Metrics().GetCounter("control.rounds.run");
  obs::Counter& commits = obs::Metrics().GetCounter("control.commits.applied");
  obs::Counter& suppressed =
      obs::Metrics().GetCounter("control.commits.suppressed");
  obs::Counter& flips = obs::Metrics().GetCounter("control.commits.flips");
  obs::Counter& inval_ug =
      obs::Metrics().GetCounter("control.invalidations.ug");
  obs::Counter& inval_peering =
      obs::Metrics().GetCounter("control.invalidations.peering");
  obs::Histogram& reaction = obs::Metrics().GetHistogram(
      "control.reaction.latency_ms",
      obs::HistogramSpec{.min_bound = 1.0, .growth = 2.0, .buckets = 32});

  static ServiceMetrics& Get() {
    static ServiceMetrics m;
    return m;
  }
};

// One counter per delta kind, full literals so the closed `control` metric
// family stays greppable (tools/metrics_lint.py forbids runtime-built names).
obs::Counter& DeltaCounter(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kUgLatency:
      return obs::Metrics().GetCounter("control.deltas.ug_latency");
    case DeltaKind::kSession:
      return obs::Metrics().GetCounter("control.deltas.session");
  }
  return obs::Metrics().GetCounter("control.deltas.ug_latency");
}

void AppendG17(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

ControlPlaneService::ControlPlaneService(netsim::Simulator& sim,
                                         core::Orchestrator& orchestrator,
                                         core::AdvertisementEnvironment& env,
                                         DeltaBus& bus,
                                         ControlPlaneConfig config,
                                         CommitCallback on_commit)
    : sim_(&sim),
      orchestrator_(&orchestrator),
      bus_(&bus),
      config_(config),
      on_commit_(std::move(on_commit)),
      timeline_(
          sim, orchestrator, env,
          core::LearningTimelineConfig{
              .start_s = 0.0,
              .round_interval_s = config.round_interval_s,
              .max_rounds_per_episode = config.max_rounds_per_episode,
              .timeseries = config.timeseries},
          [this](std::size_t round,
                 const core::Orchestrator::IterationReport& report,
                 const std::vector<
                     core::AdvertisementEnvironment::PrefixObservation>&) {
            OnRound(round, report);
          }),
      wake_us_(netsim::UsFromSeconds(config.wake_interval_s)) {
  if (wake_us_ == 0) {
    throw std::invalid_argument{
        "ControlPlaneService: wake_interval_s below 1 microsecond"};
  }
}

void ControlPlaneService::Start() {
  anchor_us_ = sim_->NowUs() + netsim::UsFromSeconds(config_.start_s);
  sim_->ScheduleAtUs(anchor_us_, [this]() { Wake(); });
}

bool ControlPlaneService::TranslateBatch(const std::vector<Delta>& batch) {
  ServiceMetrics& m = ServiceMetrics::Get();
  bool urgent = false;
  auto mark_urgent = [&](const Delta& d) {
    urgent = true;
    ++stats_.urgent_deltas;
    if (!pending_onset_us_.has_value() || d.t_us < *pending_onset_us_) {
      pending_onset_us_ = d.t_us;
    }
  };
  for (const Delta& d : batch) {
    DeltaCounter(d.kind).Add();
    switch (d.kind) {
      case DeltaKind::kUgLatency:
        if (d.value >= kMinLatencyDeltaMs &&
            orchestrator_->InvalidateUg(d.id)) {
          ++stats_.invalidated_ugs;
          m.inval_ug.Add();
        }
        break;
      case DeltaKind::kSession: {
        const bool down = d.value != 0.0;
        if (orchestrator_->SetPeeringAvailable(util::PeeringId{d.id}, !down)) {
          ++stats_.invalidated_peerings;
          m.inval_peering.Add();
          if (down) mark_urgent(d);
        }
        break;
      }
    }
  }
  return urgent;
}

void ControlPlaneService::Wake() {
  ++stats_.wakes;
  scratch_.clear();
  bus_->DrainInto(scratch_);
  stats_.deltas_consumed += scratch_.size();
  if (TranslateBatch(scratch_)) urgent_pending_ = true;

  const netsim::SimTime now = sim_->NowUs();
  const netsim::SimTime cooldown_us =
      netsim::UsFromSeconds(config_.cooldown_s);
  const bool cooldown_ok = stats_.episodes_triggered == 0 ||
                           now - last_trigger_us_ >= cooldown_us;
  const bool want =
      !bootstrapped_ || urgent_pending_ ||
      (orchestrator_->DirtyUgCount() >= config_.min_dirty_ugs && cooldown_ok);
  if (want && !timeline_.Active()) {
    bootstrapped_ = true;
    urgent_pending_ = false;
    last_trigger_us_ = now;
    ++stats_.episodes_triggered;
    ServiceMetrics::Get().episodes.Add();
    episode_start_us_ =
        obs::TraceSink::Enabled() ? obs::TraceSink::NowUs() : -1.0;
    timeline_.Start();
  }

  ++wake_index_;
  sim_->ScheduleAtUs(anchor_us_ + wake_index_ * wake_us_, [this]() { Wake(); });
}

void ControlPlaneService::OnRound(
    std::size_t round, const core::Orchestrator::IterationReport& report) {
  ServiceMetrics& m = ServiceMetrics::Get();
  const netsim::SimTime now = sim_->NowUs();
  ++stats_.rounds_run;
  m.rounds.Add();

  const ConfigDiff diff = DiffConfigs(committed_, report.config);
  RoundRecord rec{round, now, diff.FlipCount(), false};
  if (!diff.Empty()) {
    const netsim::SimTime window_us =
        netsim::UsFromSeconds(config_.commit_window_s);
    while (!commit_times_.empty() && now - commit_times_.front() >= window_us) {
      commit_times_.pop_front();
    }
    if (commit_times_.size() < config_.max_commits_per_window) {
      committed_ = report.config;
      commit_times_.push_back(now);
      rec.committed = true;
      ++stats_.commits_applied;
      stats_.flips_total += diff.FlipCount();
      m.commits.Add();
      m.flips.Add(diff.FlipCount());
      if (pending_onset_us_.has_value()) {
        const double reaction_ms =
            static_cast<double>(now - *pending_onset_us_) / 1000.0;
        reaction_ms_.push_back(reaction_ms);
        m.reaction.Record(reaction_ms);
        if (config_.timeseries != nullptr) {
          config_.timeseries->Append("control.reaction.latency_ms", now,
                                     reaction_ms);
          config_.timeseries->Append("control.reaction.flips", now,
                                     static_cast<double>(diff.FlipCount()));
        }
        pending_onset_us_.reset();
      }
      if (on_commit_) on_commit_(diff, report);
    } else {
      ++stats_.commits_suppressed;
      m.suppressed.Add();
    }
  }
  rounds_.push_back(rec);
  // The episode's span: from its trigger to the end of its last round, so
  // it also holds the wall time of whatever the simulator ran between the
  // rounds.
  if (timeline_.Finished() && episode_start_us_ >= 0.0) {
    obs::TraceSink::Emit("control.episode", "painter", episode_start_us_,
                         obs::TraceSink::NowUs() - episode_start_us_);
  }
}

std::string ControlPlaneService::CanonicalStats() const {
  std::string out;
  out += "wakes=" + std::to_string(stats_.wakes);
  out += " deltas=" + std::to_string(stats_.deltas_consumed);
  out += " urgent=" + std::to_string(stats_.urgent_deltas);
  out += " inval_ug=" + std::to_string(stats_.invalidated_ugs);
  out += " inval_peering=" + std::to_string(stats_.invalidated_peerings);
  out += " episodes=" + std::to_string(stats_.episodes_triggered);
  out += " rounds=" + std::to_string(stats_.rounds_run);
  out += " commits=" + std::to_string(stats_.commits_applied);
  out += " suppressed=" + std::to_string(stats_.commits_suppressed);
  out += " flips=" + std::to_string(stats_.flips_total);
  out += "\nrounds:";
  for (const RoundRecord& r : rounds_) {
    out += " r" + std::to_string(r.round) + "@" + std::to_string(r.t_us) +
           ":f" + std::to_string(r.flips) + (r.committed ? "C" : "s");
  }
  out += "\nreactions_ms:";
  for (double v : reaction_ms_) {
    out += ' ';
    AppendG17(out, v);
  }
  out += "\nconfig:\n";
  out += core::ConfigToString(committed_);
  return out;
}

}  // namespace painter::control
