// The unified timeline: every PAINTER component on one DES clock.
//
// ROADMAP's "one timeline, one run": a single netsim::Simulator hosts, in
// true timestamp order,
//   - the TM-Edge's probes/failover and a deterministic fault plan,
//   - the workload replay's admission/expiry ticks replaying a diurnal,
//     heavy-tailed flow trace,
//   - per-resolver DNS TTL refresh events (dnssim::TtlCache),
//   - the orchestrator's advertisement rounds (core::LearningTimeline).
//
// Each completed round publishes a new configuration *version*; a resolver
// only starts serving it at its next TTL refresh, and every flow arrival is
// scored under whatever version its UG's resolver serves at that instant.
// That re-derives Fig. 6b/6c benefit curves *workload-weighted*: benefit per
// time bucket is averaged over realized bytes (diurnal swing, elephant
// flows, TTL staleness lag all included) instead of the static per-UG mean
// the closed-form evaluation reports.
//
// Determinism: the result is a pure function of UnifiedTimelineConfig. Trace
// generation and the orchestrator are deterministic by contract, the
// timeline itself draws all randomness from seeded Rngs before or in
// deterministic event order, and CanonicalSummary serializes with
// round-trip-exact doubles — so summaries are byte-identical across reruns
// (tests/timeline_test.cc pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dnssim/ttl_cache.h"
#include "workload/sharded_engine.h"

namespace painter::obs {
class TimeseriesRegistry;
}  // namespace painter::obs

namespace painter::timeline {

struct UnifiedTimelineConfig {
  std::uint64_t seed = 7;
  // The sharded timeline (DESIGN.md §13): the simulator becomes the control
  // shard and the workload replays on `shards` shard-local simulators under
  // epoch barriers, all on the calling thread. A power of two in [1, 256];
  // results are identical for every value (the property suite pins
  // 1/2/4).
  std::size_t shards = 1;

  // Simulated-Internet world the advertisement rounds execute against.
  std::size_t stubs = 200;
  std::size_t pops = 8;
  std::size_t transits = 16;
  std::size_t regionals = 40;

  // Workload trace replayed through the TM-Edge.
  double trace_duration_s = 600.0;
  double mean_flows_per_s = 40.0;
  double tick_s = 0.1;

  // Advertisement rounds: round k at round_start_s + k * round_interval_s.
  // max_rounds >= 2 so the trace spans successive configurations.
  double round_start_s = 30.0;
  double round_interval_s = 120.0;
  std::size_t max_rounds = 4;
  std::size_t prefix_budget = 15;

  // DNS record TTL — the staleness lag between a published configuration
  // and resolvers actually steering clients to it.
  double ttl_s = 60.0;

  // Benefit-curve time bucketing.
  double curve_bucket_s = 60.0;

  // Deterministic fault plan injected on the TM tunnels, interleaved with
  // everything else on the same queue.
  bool inject_faults = true;

  // Optional streaming telemetry for the whole run: replay occupancy and
  // utilization samplers, TTL staleness sampler, per-round
  // predicted/realized event series, sampled on the registry's grid for the
  // run's horizon. The registry must outlive the call. Null records nothing
  // and leaves the result byte-identical.
  obs::TimeseriesRegistry* timeseries = nullptr;
};

struct UnifiedTimelineResult {
  struct Round {
    double t_s = 0.0;  // when the round executed on the shared clock
    double predicted_mean_ms = 0.0;
    double realized_ms = 0.0;
    double realized_positive_ms = 0.0;
    std::size_t prefixes_used = 0;
  };
  // One point per curve_bucket_s of trace time.
  struct CurvePoint {
    double t_s = 0.0;          // bucket start
    double bytes = 0.0;        // bytes arriving in the bucket
    double benefit_ms = 0.0;   // byte-weighted mean benefit vs anycast
    double stale_bytes = 0.0;  // bytes served under a superseded version
  };

  std::vector<Round> rounds;
  std::vector<CurvePoint> curve;
  // Byte-weighted mean benefit over the whole trace vs the final round's
  // static per-UG weighted mean — the quantity EXPERIMENTS.md contrasts.
  double weighted_benefit_ms = 0.0;
  double static_mean_benefit_ms = 0.0;
  double stale_byte_frac = 0.0;

  std::uint64_t trace_checksum = 0;
  workload::ShardedWorkloadReplay::Stats workload;
  dnssim::TtlCache::Stats ttl;
  std::uint64_t executed_events = 0;
  std::size_t resolver_count = 0;
  std::size_t ug_count = 0;
};

// Builds the world, generates the trace, and runs everything to completion
// on one simulator. Pure function of `config`.
[[nodiscard]] UnifiedTimelineResult RunUnifiedTimeline(
    const UnifiedTimelineConfig& config);

// Canonical text form of a result: fixed field order, round-trip-exact
// ("%.17g") doubles, newline-separated. Two results are behaviourally
// identical iff their summaries are byte-identical — the determinism tests
// and the bench report both hash/compare this.
[[nodiscard]] std::string CanonicalSummary(const UnifiedTimelineResult& result);

}  // namespace painter::timeline
