#include "workload/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "control/delta_bus.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace painter::workload {
namespace {

struct EngineMetrics {
  obs::Counter& started =
      obs::Metrics().GetCounter("workload.engine.flows_started");
  obs::Counter& rejected =
      obs::Metrics().GetCounter("workload.engine.flows_rejected");
  obs::Counter& completed =
      obs::Metrics().GetCounter("workload.engine.flows_completed");
  obs::Counter& down_picks =
      obs::Metrics().GetCounter("workload.engine.down_picks");

  static EngineMetrics& Get() {
    static EngineMetrics m;
    return m;
  }
};

}  // namespace

WorkloadEngine::WorkloadEngine(netsim::Simulator& sim, tm::TmEdge& edge,
                               std::vector<int> tunnel_pop, LoadTracker& load,
                               const DestinationPolicy& policy,
                               const Trace& trace, EngineConfig config)
    : sim_(&sim),
      edge_(&edge),
      tunnel_pop_(std::move(tunnel_pop)),
      load_(&load),
      policy_(&policy),
      trace_(&trace),
      config_(config),
      store_(config.store),
      tick_us_(netsim::UsFromSeconds(config.tick_s)) {
  ValidateEngineConfig(config_);
  if (tick_us_ == 0) {
    throw std::invalid_argument{"WorkloadEngine: tick_s below 1 microsecond"};
  }
  // One bucket per tick of the trace, plus one absorbing bucket for flows
  // whose (clamped) lifetime outlives the trace — drained by the final tick.
  // Pure integer arithmetic: the bucket count and BucketOf divide the same
  // integer tick, so the last in-trace expiry always lands in-range.
  const std::size_t ticks =
      static_cast<std::size_t>(trace.duration_us / tick_us_) + 2;
  expiry_buckets_.resize(ticks);
}

netsim::FlowKey WorkloadEngine::KeyFor(const FlowEvent& event) {
  // 20.0.0.0/8 client space, disjoint from the scripted scenario flows
  // (192.168/16) and the tunnel outer tuples (10/8).
  return netsim::FlowKey{
      .src_ip = 0x14000000u | (event.ug & 0x00FFFFFFu),
      .dst_ip = 0x08080808u,
      .src_port = static_cast<netsim::Port>(event.seq & 0xFFFFu),
      .dst_port = static_cast<netsim::Port>(0x2000u + ((event.seq >> 16) &
                                                       0x0FFFu)),
      .proto = 6};
}

FlowTiming TimingFor(const FlowEvent& event, const EngineConfig& config) {
  const double duration_s =
      std::clamp(static_cast<double>(event.bytes) / config.flow_bytes_per_s,
                 config.min_duration_s, config.max_duration_s);
  return FlowTiming{
      .rate_bps = static_cast<double>(event.bytes) / duration_s,
      .expiry_us = event.start_us + netsim::UsFromSeconds(duration_s)};
}

void ValidateEngineConfig(const EngineConfig& config) {
  if (!std::isfinite(config.flow_bytes_per_s) ||
      config.flow_bytes_per_s <= 0.0) {
    throw std::invalid_argument{
        "EngineConfig: flow_bytes_per_s must be finite and > 0"};
  }
  if (!std::isfinite(config.min_duration_s) || config.min_duration_s < 0.0) {
    throw std::invalid_argument{
        "EngineConfig: min_duration_s must be finite and >= 0"};
  }
  if (!std::isfinite(config.max_duration_s)) {
    throw std::invalid_argument{"EngineConfig: max_duration_s must be finite"};
  }
  if (config.min_duration_s > config.max_duration_s) {
    throw std::invalid_argument{
        "EngineConfig: min_duration_s exceeds max_duration_s"};
  }
}

void SnapshotViews(const tm::TmEdge& edge, std::span<const int> tunnel_pop,
                   std::vector<TunnelView>& views) {
  views.clear();
  views.reserve(edge.TunnelCount());
  for (std::size_t i = 0; i < edge.TunnelCount(); ++i) {
    const auto rtt = edge.TunnelRttMs(i);
    views.push_back(TunnelView{
        .tunnel = static_cast<int>(i),
        .pop = i < tunnel_pop.size() ? tunnel_pop[i] : -1,
        .usable = rtt.has_value(),
        .rtt_ms = rtt.value_or(0.0)});
  }
}

std::vector<TunnelView> WorkloadEngine::CurrentViews() const {
  std::vector<TunnelView> views;
  SnapshotViews(*edge_, tunnel_pop_, views);
  return views;
}

void WorkloadEngine::Start() {
  if (config_.place_edge_flows) {
    edge_->SetFlowPlacer([this](const netsim::FlowKey&, int chosen) {
      const std::vector<TunnelView> views = CurrentViews();
      const int pick = policy_->Pick(views, *load_);
      return pick >= 0 ? pick : chosen;
    });
  }
  // Anchor the tick grid at the attach time: tick k fires at exactly
  // start_us_ + (k+1) * tick_us_, an integer arithmetic progression the
  // rescheduling in Tick() re-derives from tick_index_ every time instead of
  // accumulating relative delays.
  start_us_ = sim_->NowUs();
  sim_->ScheduleAtUs(start_us_ + tick_us_, [this]() { Tick(); });

  // Control-plane feed baselines: utilization starts at its true initial
  // value (so the first real swing publishes), RTTs start unmeasured (the
  // first measurement initializes silently — nothing changed yet).
  if (config_.delta_bus != nullptr) {
    published_util_.resize(load_->PopCount());
    for (std::size_t p = 0; p < load_->PopCount(); ++p) {
      published_util_[p] = load_->Utilization(static_cast<int>(p));
    }
    published_rtt_.assign(edge_->TunnelCount(),
                          std::numeric_limits<double>::quiet_NaN());
  }

  // Streaming telemetry: occupancy and per-PoP utilization, sampled on the
  // registry's own grid. Pure reads — the samplers never touch engine state.
  if (config_.timeseries != nullptr) {
    config_.timeseries->RegisterSampler(
        "workload.engine.concurrent_flows",
        [this]() { return static_cast<double>(store_.size()); });
    for (std::size_t p = 0; p < load_->PopCount(); ++p) {
      config_.timeseries->RegisterSampler(
          "workload.load.pop" + std::to_string(p) + ".utilization",
          [this, p]() { return load_->Utilization(static_cast<int>(p)); });
    }
  }
}

std::size_t WorkloadEngine::BucketOf(std::uint64_t expiry_us) const {
  // expiry_us is trace time; bucket k is drained by tick k, which fires at
  // trace time (k+1) * tick_us_ >= every expiry in [k*tick, (k+1)*tick).
  const auto bucket = static_cast<std::size_t>(expiry_us / tick_us_);
  return std::min(bucket, expiry_buckets_.size() - 1);
}

void WorkloadEngine::Admit(const FlowEvent& event,
                           const std::vector<TunnelView>& views) {
  ++stats_.arrivals;
  const int pick = policy_->Pick(views, *load_);
  if (pick < 0 || static_cast<std::size_t>(pick) >= views.size()) {
    ++stats_.rejected;
    EngineMetrics::Get().rejected.Add();
    return;
  }
  if (!views[static_cast<std::size_t>(pick)].usable) {
    // Policy contract breach — count it loudly instead of crashing, the
    // chaos sweep turns a non-zero count into a violation.
    ++stats_.down_picks;
    EngineMetrics::Get().down_picks.Add();
    obs::FlightRecorder::Record(
        sim_->NowUs(), "workload.engine", obs::Severity::kError, "down_pick",
        {{"tunnel", static_cast<double>(pick)},
         {"concurrent", static_cast<double>(store_.size())}});
    ++stats_.rejected;
    return;
  }
  const int pop = views[static_cast<std::size_t>(pick)].pop;
  const FlowTiming timing = TimingFor(event, config_);

  if (load_->Utilization(pop) >= 1.0) ++stats_.saturated_assignments;

  const netsim::FlowKey key = KeyFor(event);
  PinnedFlow& flow = store_.Upsert(key);
  flow.tunnel = pick;
  flow.pop = pop;
  flow.bytes = event.bytes;
  flow.expiry_us = timing.expiry_us;
  flow.rate_bps = timing.rate_bps;

  load_->OnAssign(pop, timing.rate_bps);
  stats_.max_utilization =
      std::max(stats_.max_utilization, load_->Utilization(pop));
  stats_.bytes_offered += static_cast<double>(event.bytes);
  ++stats_.started;
  EngineMetrics::Get().started.Add();
  expiry_buckets_[BucketOf(timing.expiry_us)].push_back(key);
}

void WorkloadEngine::ExpireBucket(std::size_t bucket) {
  for (const netsim::FlowKey& key : expiry_buckets_[bucket]) {
    const PinnedFlow* flow = store_.Find(key);
    if (flow == nullptr) continue;  // already expired (defensive; unique keys)
    load_->OnRelease(flow->pop, flow->rate_bps);
    store_.Erase(key);
    ++stats_.completed;
    EngineMetrics::Get().completed.Add();
  }
  expiry_buckets_[bucket].clear();
  expiry_buckets_[bucket].shrink_to_fit();
}

void WorkloadEngine::PublishDeltas(const std::vector<TunnelView>& views) {
  control::DeltaBus& bus = *config_.delta_bus;
  const netsim::SimTime now = sim_->NowUs();
  for (std::size_t p = 0; p < load_->PopCount(); ++p) {
    const double util = load_->Utilization(static_cast<int>(p));
    if (std::abs(util - published_util_[p]) >= config_.load_delta_frac) {
      bus.Publish(control::Delta{control::DeltaKind::kPopLoad, now,
                                 static_cast<std::uint32_t>(p), util});
      published_util_[p] = util;
    }
  }
  for (const TunnelView& v : views) {
    if (!v.usable || v.tunnel < 0) continue;
    const auto t = static_cast<std::size_t>(v.tunnel);
    if (t >= published_rtt_.size()) continue;
    if (std::isnan(published_rtt_[t])) {
      published_rtt_[t] = v.rtt_ms;  // first sighting: baseline, no delta
      continue;
    }
    const double delta = std::abs(v.rtt_ms - published_rtt_[t]);
    if (delta >= config_.rtt_delta_ms) {
      bus.Publish(control::Delta{control::DeltaKind::kUgLatency, now,
                                 static_cast<std::uint32_t>(t), delta});
      published_rtt_[t] = v.rtt_ms;
    }
  }
  load_->PublishCapacityDeltas(bus, now);
}

void WorkloadEngine::Tick() {
  // Trace time, exact on the integer clock — no float round-trip, so an
  // arrival due precisely on the tick boundary satisfies `<= now_us`.
  const std::uint64_t now_us = sim_->NowUs() - start_us_;
  const std::uint64_t expected_us = (tick_index_ + 1) * tick_us_;
  stats_.max_tick_skew_us =
      std::max(stats_.max_tick_skew_us, now_us > expected_us
                                            ? now_us - expected_us
                                            : expected_us - now_us);
  const std::vector<TunnelView> views = CurrentViews();
  const std::vector<FlowEvent>& events = trace_->events;
  while (cursor_ < events.size() && events[cursor_].start_us <= now_us) {
    if (config_.on_arrival) config_.on_arrival(events[cursor_]);
    Admit(events[cursor_], views);
    ++cursor_;
  }
  stats_.peak_concurrent =
      std::max<std::uint64_t>(stats_.peak_concurrent, store_.size());

  if (tick_index_ < expiry_buckets_.size()) ExpireBucket(tick_index_);
  ++tick_index_;

  // Feed the control plane after this tick's admissions and expiries — the
  // published state is what the tick left behind. Reads only; a null bus
  // leaves the run untouched.
  if (config_.delta_bus != nullptr) PublishDeltas(views);

  const bool trace_done = cursor_ >= events.size();
  const bool drained = store_.empty();
  const bool past_end = now_us >= trace_->duration_us + 1'000'000u;
  if (trace_done && (drained || past_end)) {
    // Final drain: release whatever outlived the trace so the load gauges
    // settle back to zero, then stop rescheduling.
    for (std::size_t b = tick_index_; b < expiry_buckets_.size(); ++b) {
      ExpireBucket(b);
    }
    load_->ExportGauges();
    return;
  }
  // Next tick on the absolute grid — re-derived, never accumulated.
  sim_->ScheduleAtUs(start_us_ + (tick_index_ + 1) * tick_us_,
                     [this]() { Tick(); });
}

}  // namespace painter::workload
