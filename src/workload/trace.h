// Deterministic large-scale traffic trace generation.
//
// PAINTER's evaluation weighs everything by user-group traffic volume
// (Eq. 1); the Traffic Manager claims (§3.2, App. D) are about sustaining
// real client load, not one scripted probe. This module turns a cloudsim
// deployment into a day of flow arrivals: each UG is an independent
// non-homogeneous Poisson source whose rate follows its traffic weight and a
// diurnal curve phased by its metro's longitude (metros peak in their local
// afternoon), with bounded-Pareto flow sizes (heavy tail, finite cap).
//
// Determinism contract: a trace is a pure function of (config, profiles).
// Every UG draws from its own hash-seeded Rng stream and the merged stream
// is canonically sorted by (start_us, ug, seq) — so the same seed produces a
// byte-identical trace, and SerializeTrace/LoadTrace round-trips it for
// replay without regeneration.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cloudsim/deployment.h"
#include "topo/generator.h"

namespace painter::workload {

// Exclusive bounds on FlowEvent::ug and ::seq (WorkloadEngine::KeyFor's bits).
inline constexpr std::uint32_t kTraceUgLimit = std::uint32_t{1} << 24;
inline constexpr std::uint32_t kTraceSeqLimit = std::uint32_t{1} << 28;

// One flow arrival. 24 bytes; a day at a million flows costs ~24 MB.
struct FlowEvent {
  std::uint64_t start_us = 0;  // arrival time, microseconds of simulated time
  std::uint32_t ug = 0;        // UgId value of the source user group
  std::uint32_t seq = 0;       // per-UG arrival index; (ug, seq) is unique
  std::uint64_t bytes = 0;     // flow volume (bounded Pareto)

  friend constexpr auto operator<=>(const FlowEvent&,
                                    const FlowEvent&) = default;
};

// Per-UG arrival-process parameters, derived from the deployment or drawn
// synthetically.
struct UgProfile {
  std::uint32_t ug = 0;
  double weight = 1.0;     // relative share of the aggregate arrival rate
  double peak_hour = 14.0; // diurnal peak, hours UTC (local afternoon)
};

struct TraceConfig {
  std::uint64_t seed = 1;
  double duration_s = 86400.0;      // one simulated day
  double mean_flows_per_s = 50.0;   // aggregate, time-averaged over the day
  double diurnal_depth = 0.6;       // in [0, 1): 0 = flat, ~1 = full swing
  // Bounded Pareto flow-size distribution.
  double size_min_bytes = 2.0e3;
  double size_max_bytes = 5.0e8;
  double size_alpha = 1.3;
};

struct Trace {
  std::uint64_t seed = 0;
  std::uint64_t duration_us = 0;
  std::vector<FlowEvent> events;  // sorted by (start_us, ug, seq)
};

// Generates the trace; byte-identical for the same (config, profiles) (see
// determinism contract above).
[[nodiscard]] Trace GenerateTrace(const TraceConfig& config,
                                  std::span<const UgProfile> profiles);

// Profiles from a deployment: weight = UG traffic weight x metro population
// weight, peak hour from the metro's longitude (15 degrees per hour).
[[nodiscard]] std::vector<UgProfile> UgProfilesFromDeployment(
    const topo::Internet& internet, const cloudsim::Deployment& deployment);

// Hash-seeded synthetic profiles (Pareto weights, uniform peak hours) for
// worlds without a deployment, e.g. the chaos-under-load sweep.
[[nodiscard]] std::vector<UgProfile> SyntheticUgProfiles(std::size_t count,
                                                         std::uint64_t seed);

// Binary serialization (PWLT1 header + little-endian events). The format is
// platform-independent; the same trace always serializes to the same bytes.
[[nodiscard]] std::string SerializeTrace(const Trace& trace);
void SaveTrace(const Trace& trace, std::ostream& os);
// Throws std::runtime_error on a bad header, a truncated stream, events not
// strictly increasing in (start_us, ug, seq), a UG's seq not strictly
// increasing along the trace, or a ug / seq at or past its kTrace*Limit.
[[nodiscard]] Trace LoadTrace(std::istream& is);

// FNV-1a over SerializeTrace bytes: the one-number identity reports carry.
[[nodiscard]] std::uint64_t TraceChecksum(const Trace& trace);

// Inverse-CDF bounded Pareto on [lo, hi] with shape alpha; u in [0, 1).
[[nodiscard]] double BoundedPareto(double u, double lo, double hi,
                                   double alpha);

// Diurnal rate multiplier at simulated time t_s for a source peaking at
// peak_hour (UTC). Mean over a full day is exactly 1.
[[nodiscard]] double DiurnalFactor(double t_s, double peak_hour, double depth);

}  // namespace painter::workload
