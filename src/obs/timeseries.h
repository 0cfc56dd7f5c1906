// Sim-time streaming telemetry: periodic sampling of registered sources
// into bounded, delta-encoded ring-buffered series.
//
// The metrics registry (metrics.h) answers "how much, in total, by the end
// of the run"; this registry answers "when, on the simulated timeline". A
// TimeseriesRegistry is a per-run object (never global — samplers capture
// pointers into run-scoped components, so tying the registry's lifetime to
// the run makes dangling callbacks impossible by construction). Two series
// forms:
//
//  - Sampled series: a callback registered with RegisterSampler is read at
//    every grid point. StartSampling schedules sample k at exactly
//    anchor + k * period_us on the shared netsim::Simulator's absolute
//    integer-µs grid (re-derived from k, never accumulated — the same rule
//    as every other grid scheduler, DESIGN.md §11), so sample timestamps are
//    implicit: only the values are stored.
//  - Event series: point-in-time appends (a detection latency when a fault
//    is detected, a round's realized benefit when it completes). Timestamps
//    are stored delta-encoded in the ring: the series keeps the absolute
//    time of its oldest retained point plus per-point deltas, and evicting
//    the oldest point folds its delta into the base — so a wrapped ring
//    still reconstructs exact absolute times.
//
// Rings are bounded (TimeseriesConfig::capacity): an always-on run holds the
// most recent N points per series and counts what it dropped. Export is the
// `painter.timeseries.v1` JSON block (WriteJson / RunReport::AttachTimeseries):
// values whose samples are all integral are emitted as first-value +
// integer deltas ("samples_delta" / "values_delta" keys) — exact, since
// integral doubles subtract exactly — and fractional series fall back to raw
// arrays. Series registered with wall_clock=true carry `wall_`-prefixed
// sample keys so obs::StripVolatile empties them when diffing runs; all
// other fields are pure functions of sim time and byte-identical across
// reruns.
//
// Thread-safety: none. Sampling, appends, and export all happen on the
// simulator thread (the DES loop is single-threaded); hot loops feed
// counters, and counters are what samplers read.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/sim.h"

namespace painter::obs {

struct TimeseriesConfig {
  double period_s = 1.0;        // sampling grid spacing (>= 1 µs)
  std::size_t capacity = 4096;  // ring capacity, per series (>= 2)
};

class TimeseriesRegistry {
 public:
  explicit TimeseriesRegistry(TimeseriesConfig config = {});

  // Registers a sampled series. `fn` is called at every grid point, in
  // registration order; it must be a pure read (no mutation, no RNG) so the
  // sampling events cannot perturb the run they observe. Registering a name
  // twice throws std::logic_error. `wall_clock` marks the series' values as
  // wall-clock-derived: the export prefixes its sample key with `wall_`.
  void RegisterSampler(std::string name, std::function<double()> fn,
                       bool wall_clock = false);

  // Appends one point to the named event series (created on first use; the
  // name must not collide with a sampled series). `t_us` must be
  // non-decreasing per series — event sources fire in DES order, so this
  // holds for free; a regression throws std::invalid_argument.
  void Append(std::string_view name, netsim::SimTime t_us, double value);

  // Schedules the sampling chain on `sim`: sample k at NowUs() + k * period
  // for every k with k * period <= horizon_s (quantized). Call at most once.
  void StartSampling(netsim::Simulator& sim, double horizon_s);

  // Takes one sample of every registered sampler at `t_us` (tests and
  // non-DES callers; StartSampling's events call this too).
  void SampleNow(netsim::SimTime t_us);

  [[nodiscard]] std::size_t SeriesCount() const { return series_.size(); }
  [[nodiscard]] std::uint64_t SamplesTaken() const { return samples_taken_; }
  // Largest |fire time - grid slot| over all sampling events, µs. Stays 0 on
  // the absolute grid; the alignment test pins it.
  [[nodiscard]] std::uint64_t MaxSampleSkewUs() const { return max_skew_us_; }

  // Read-back for tests: reconstructed absolute times and raw values of the
  // retained window, oldest first. Throws std::out_of_range on unknown name.
  struct SeriesView {
    bool sampled = false;  // false: event series
    bool wall_clock = false;
    std::uint64_t dropped = 0;  // points evicted by the ring
    std::vector<netsim::SimTime> t_us;
    std::vector<double> values;
  };
  [[nodiscard]] SeriesView View(std::string_view name) const;

  // `painter.timeseries.v1` block: {"schema":...,"period_us":...,
  // "anchor_us":...,"series":{...}} with series sorted by name.
  void WriteJson(std::ostream& os) const;
  [[nodiscard]] std::string ToJson() const;

 private:
  struct Series {
    std::string name;
    bool sampled = false;
    bool wall_clock = false;
    std::function<double()> fn;  // sampled series only
    // Bounded ring, oldest first (kept compacted: eviction pops the front
    // after folding its time delta into base_t_us; capacity is small and
    // eviction is O(capacity) only after the ring fills).
    std::vector<double> values;
    std::vector<std::uint64_t> t_delta_us;  // event series only
    netsim::SimTime base_t_us = 0;          // absolute time of values.front()
    netsim::SimTime last_t_us = 0;
    std::uint64_t dropped = 0;
  };

  void Push(Series& s, netsim::SimTime t_us, double value);
  void ScheduleSample(netsim::Simulator& sim, std::uint64_t index);
  [[nodiscard]] const Series& Find(std::string_view name) const;

  TimeseriesConfig config_;
  netsim::SimTime period_us_ = 0;
  netsim::SimTime anchor_us_ = 0;
  netsim::SimTime horizon_us_ = 0;
  bool sampling_started_ = false;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t max_skew_us_ = 0;
  std::vector<Series> series_;  // registration order; export sorts by name
};

}  // namespace painter::obs
