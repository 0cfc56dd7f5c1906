#include "tm/tm_edge.h"

#include <algorithm>
#include <stdexcept>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace painter::tm {
namespace {

// TM telemetry. The event-driven simulator is single-threaded and seeded, so
// every one of these counts is deterministic for a given scenario config.
struct TmMetrics {
  obs::Counter& probes_sent = obs::Metrics().GetCounter("tm.edge.probes_sent");
  obs::Counter& probe_replies =
      obs::Metrics().GetCounter("tm.edge.probe_replies");
  obs::Counter& probe_timeouts =
      obs::Metrics().GetCounter("tm.edge.probe_timeouts");
  obs::Counter& tunnel_down_events =
      obs::Metrics().GetCounter("tm.edge.tunnel_down_events");
  obs::Counter& switchovers = obs::Metrics().GetCounter("tm.edge.switchovers");

  static TmMetrics& Get() {
    static TmMetrics m;
    return m;
  }
};

}  // namespace

TmEdge::TmEdge(netsim::Simulator& sim, Config config,
               std::vector<TunnelConfig> tunnels)
    : sim_(&sim), config_(config), rng_(config.seed) {
  // ProbeTunnel reschedules itself one interval ahead: an interval that
  // rounds to 0 µs would reschedule at the same instant forever.
  if (netsim::UsFromSeconds(config.probe_interval_s) == 0) {
    throw std::invalid_argument{"TmEdge: probe_interval_s rounds to 0 us"};
  }
  tunnels_.reserve(tunnels.size());
  for (auto& t : tunnels) {
    Tunnel tun;
    tun.config = std::move(t);
    tunnels_.push_back(std::move(tun));
  }
}

double TmEdge::Jitter() {
  return 1.0 + config_.delay_jitter * rng_.Uniform(-1.0, 1.0);
}

void TmEdge::Start() {
  for (std::size_t i = 0; i < tunnels_.size(); ++i) ProbeTunnel(i);
}

double TmEdge::ProbeTimeout(const Tunnel& t) const {
  const double rtt = t.have_rtt ? t.rtt_ewma_s : 0.2;  // generous cold start
  return std::max(config_.min_probe_timeout_s,
                  rtt * config_.failover_rtt_multiplier);
}

void TmEdge::SendViaTunnel(std::size_t i, netsim::Packet packet) {
  Tunnel& tun = tunnels_[i];
  packet.outer = netsim::FlowKey{.src_ip = 0x0a000001,
                                 .dst_ip = tun.config.remote_ip,
                                 .src_port = 40000,
                                 .dst_port = 4500,
                                 .proto = 17};
  packet.sent_at = sim_->Now();
  if (tun.config.admit && !tun.config.admit(packet, sim_->Now())) {
    return;  // injected fault: packet swallowed before entering the path
  }
  const auto delay = tun.config.path.OneWayDelay(sim_->Now());
  if (!delay.has_value()) return;  // path down: packet lost in flight

  // Through the bottleneck hop first (queueing + possible drop), then the
  // propagation path.
  if (tun.config.bottleneck != nullptr) {
    const double path_delay = *delay * Jitter();
    tun.config.bottleneck->Send(packet, [this, i, path_delay](
                                            const netsim::Packet& p) {
      ScheduleArrival(i, p, path_delay);
    });
    return;
  }
  ScheduleArrival(i, packet, *delay * Jitter());
}

void TmEdge::ScheduleArrival(std::size_t i, const netsim::Packet& packet,
                             double delay_s) {
  if (packet.kind == netsim::PacketKind::kProbe) {
    // A probe's round trip needs only its id: the events carry (edge,
    // tunnel, id), not the packet.
    sim_->Schedule(delay_s, [this, i, id = packet.probe_id]() {
      ProbeAtPop(i, id);
    });
    return;
  }
  sim_->Schedule(delay_s, [this, i, packet]() { DeliverToPop(i, packet); });
}

void TmEdge::ProbeAtPop(std::size_t i, std::uint64_t probe_id) {
  Tunnel& tun = tunnels_[i];
  if (tun.config.pop == nullptr) return;
  tun.config.pop->AnswerProbe();
  // The reply takes the reverse direction over the same tunnel path.
  const auto back = tun.config.path.OneWayDelay(sim_->Now());
  if (!back.has_value()) return;  // reply lost
  sim_->Schedule(*back * Jitter(),
                 [this, i, probe_id]() { OnProbeReply(i, probe_id); });
}

void TmEdge::DeliverToPop(std::size_t i, const netsim::Packet& packet) {
  Tunnel& tun = tunnels_[i];
  if (tun.config.pop == nullptr) return;
  tun.config.pop->HandleArrival(packet, [this, i](netsim::Packet reply) {
    // Reverse direction over the same tunnel path.
    const auto back = tunnels_[i].config.path.OneWayDelay(sim_->Now());
    if (!back.has_value()) return;  // reply lost
    sim_->Schedule(*back * Jitter(), [this, reply]() {
      // Data response delivered to the client.
      const netsim::FlowKey forward{.src_ip = reply.inner.dst_ip,
                                    .dst_ip = reply.inner.src_ip,
                                    .src_port = reply.inner.dst_port,
                                    .dst_port = reply.inner.src_port,
                                    .proto = reply.inner.proto};
      FlowStats* stats = flows_.Find(forward);
      if (stats != nullptr) ++stats->delivered;
    });
  });
}

void TmEdge::ProbeTunnel(std::size_t i) {
  Tunnel& tun = tunnels_[i];
  const std::uint64_t id = tun.next_probe_id++;
  tun.outstanding.emplace_back(id, sim_->Now());
  TmMetrics::Get().probes_sent.Add();

  netsim::Packet probe;
  probe.kind = netsim::PacketKind::kProbe;
  probe.probe_id = id;
  probe.payload_bytes = 64;
  SendViaTunnel(i, probe);

  sim_->Schedule(ProbeTimeout(tun), [this, i, id]() { OnProbeTimeout(i, id); });
  sim_->Schedule(config_.probe_interval_s, [this, i]() { ProbeTunnel(i); });
}

void TmEdge::OnProbeReply(std::size_t i, std::uint64_t probe_id) {
  Tunnel& tun = tunnels_[i];
  const auto it = std::find_if(
      tun.outstanding.begin(), tun.outstanding.end(),
      [probe_id](const auto& probe) { return probe.first == probe_id; });
  if (it == tun.outstanding.end()) return;  // already timed out
  TmMetrics::Get().probe_replies.Add();
  const double rtt = sim_->Now() - it->second;
  tun.outstanding.erase(it);

  if (!tun.have_rtt) {
    tun.rtt_ewma_s = rtt;
    tun.have_rtt = true;
  } else {
    tun.rtt_ewma_s = config_.rtt_ewma_alpha * rtt +
                     (1.0 - config_.rtt_ewma_alpha) * tun.rtt_ewma_s;
  }
  tun.up = true;
  // Continuous selection: every fresh measurement can change the best
  // destination (rising queueing delay on the chosen path, recovery of a
  // better one). Hysteresis inside Reselect keeps near-ties from flapping.
  Reselect();
}

void TmEdge::OnProbeTimeout(std::size_t i, std::uint64_t probe_id) {
  Tunnel& tun = tunnels_[i];
  const auto it = std::find_if(
      tun.outstanding.begin(), tun.outstanding.end(),
      [probe_id](const auto& probe) { return probe.first == probe_id; });
  if (it == tun.outstanding.end()) return;  // answered in time
  TmMetrics::Get().probe_timeouts.Add();
  tun.outstanding.erase(it);
  if (tun.up) {
    tun.up = false;
    TmMetrics::Get().tunnel_down_events.Add();
    obs::FlightRecorder::Record(
        sim_->NowUs(), "tm.edge", obs::Severity::kWarn, "tunnel_down",
        {{"tunnel", static_cast<double>(i)},
         {"was_chosen", chosen_ == static_cast<int>(i) ? 1.0 : 0.0}});
    if (chosen_ == static_cast<int>(i)) Reselect();
  }
}

void TmEdge::Reselect() {
  int best = -1;
  double best_rtt = 0.0;
  for (std::size_t i = 0; i < tunnels_.size(); ++i) {
    const Tunnel& t = tunnels_[i];
    if (!t.up || !t.have_rtt) continue;
    if (best < 0 || t.rtt_ewma_s < best_rtt) {
      best = static_cast<int>(i);
      best_rtt = t.rtt_ewma_s;
    }
  }
  if (best == chosen_) return;

  // Hysteresis: keep the incumbent unless it is down or the challenger is
  // better by the configured margin.
  if (chosen_ >= 0 && tunnels_[chosen_].up && best >= 0) {
    const double margin_s = config_.switch_hysteresis_ms / 1000.0;
    if (tunnels_[chosen_].rtt_ewma_s - best_rtt < margin_s) return;
  }
  TmMetrics::Get().switchovers.Add();
  obs::FlightRecorder::Record(sim_->NowUs(), "tm.edge", obs::Severity::kInfo,
                              "switchover",
                              {{"from", static_cast<double>(chosen_)},
                               {"to", static_cast<double>(best)}});
  failovers_.push_back(FailoverEvent{sim_->Now(), chosen_, best});
  chosen_ = best;
}

void TmEdge::StartFlow(const netsim::FlowKey& flow, std::size_t packets,
                       double interval_s, std::uint32_t payload_bytes) {
  // Pin the flow to the destination that is best right now; the mapping is
  // immutable for the flow's lifetime (§3.2) — packets keep using it even if
  // a better destination appears (or this one dies). A placer (capacity-aware
  // selection) may override the probing loop's choice at pin time only.
  int target = chosen_;
  if (placer_) {
    const int picked = placer_(flow, chosen_);
    if (picked >= 0 && picked < static_cast<int>(tunnels_.size())) {
      target = picked;
    }
  }
  FlowStats& stats = flows_.Upsert(flow);
  stats.tunnel = target;
  if (stats.tunnel < 0) return;  // nothing usable; flow fails to start

  for (std::size_t k = 0; k < packets; ++k) {
    sim_->Schedule(interval_s * static_cast<double>(k),
                   [this, flow, payload_bytes]() {
                     FlowStats* stats = flows_.Find(flow);
                     if (stats == nullptr || stats->tunnel < 0) return;
                     netsim::Packet p;
                     p.kind = netsim::PacketKind::kData;
                     p.inner = flow;
                     p.payload_bytes = payload_bytes;
                     ++stats->sent;
                     SendViaTunnel(static_cast<std::size_t>(stats->tunnel), p);
                   });
  }
}

std::optional<double> TmEdge::TunnelRttMs(std::size_t i) const {
  const Tunnel& t = tunnels_.at(i);
  if (!t.up || !t.have_rtt) return std::nullopt;
  return t.rtt_ewma_s * 1000.0;
}

void TmEdge::SampleEvery(double interval_s, double until_s) {
  if (netsim::UsFromSeconds(interval_s) == 0) {
    throw std::invalid_argument{"TmEdge::SampleEvery: interval rounds to 0 us"};
  }
  if (sim_->Now() > until_s) return;
  Sample s;
  s.t = sim_->Now();
  s.chosen = chosen_;
  for (std::size_t i = 0; i < tunnels_.size(); ++i) {
    s.rtt_ms.push_back(TunnelRttMs(i));
  }
  samples_.push_back(std::move(s));
  sim_->Schedule(interval_s,
                 [this, interval_s, until_s]() { SampleEvery(interval_s, until_s); });
}

}  // namespace painter::tm
