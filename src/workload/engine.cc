#include "workload/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netsim/sim.h"

namespace painter::workload {

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
  // Every clamped lifetime must land on the µs grid: UsFromSeconds throws
  // std::invalid_argument for a cap it cannot place (NaN, ±inf, >= 2^63 µs).
  static_cast<void>(netsim::UsFromSeconds(config.max_duration_s));
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

}  // namespace painter::workload
