// Machine-readable run reports for the benches (BENCH_*.json).
//
// Every bench run can emit one JSON document capturing what ran (name,
// seed, config), how long each phase took (wall-clock), the key result
// values, and a full metrics-registry snapshot — the perf trajectory every
// future optimisation PR measures itself against.
//
// Schema (painter.bench.v1):
//   {
//     "schema": "painter.bench.v1",
//     "name": "orchestrator",
//     "seed": 900,
//     "config": {"stubs": 600, "budget": 8, ...},        // insertion order
//     "phases": [{"name": "compute", "wall_ms": 12.3}, ...],
//     "values": {"speedup": 3.1, ...},                   // key results
//     "metrics": { ... MetricsRegistry::WriteJson ... }  // optional
//   }
//
// Wall-clock fields are exactly the keys "wall_ms" here and the "wall_*" /
// "ts" / "dur" keys in metrics and trace output; StripVolatile() zeroes all
// of them so two runs with the same seed can be diffed byte-for-byte (the
// determinism tests do exactly that).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace painter::obs {

class TimeseriesRegistry;

class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  void SetSeed(std::uint64_t seed) {
    seed_ = seed;
    have_seed_ = true;
  }

  void AddConfig(std::string key, std::string value);
  void AddConfig(std::string key, double value);
  void AddPhaseMs(std::string name, double wall_ms);
  void AddValue(std::string key, double value);

  // Embeds a snapshot of `reg` under "metrics".
  void AttachMetrics(const MetricsRegistry& reg = Metrics());

  // Embeds a `painter.timeseries.v1` block (timeseries.h) under
  // "timeseries" — the when-on-the-sim-clock record to go with the metrics
  // section's end-of-run totals.
  void AttachTimeseries(const TimeseriesRegistry& reg);

  // RAII phase timer: adds a phase entry with the scope's wall time.
  class ScopedPhase {
   public:
    ScopedPhase(RunReport& report, std::string name)
        : report_(&report),
          name_(std::move(name)),
          start_(std::chrono::steady_clock::now()) {}
    ~ScopedPhase() {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      report_->AddPhaseMs(
          name_, std::chrono::duration<double, std::milli>(elapsed).count());
    }
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

   private:
    RunReport* report_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  [[nodiscard]] std::string ToJson() const;

  // Writes ToJson() to `path` (e.g. "BENCH_orchestrator.json"). Throws
  // std::runtime_error naming `path` when the file cannot be opened or
  // written.
  void Write(const std::string& path) const;

 private:
  struct ConfigEntry {
    std::string key;
    std::string str_value;
    double num_value = 0.0;
    bool is_number = false;
  };

  std::string name_;
  std::uint64_t seed_ = 0;
  bool have_seed_ = false;
  std::vector<ConfigEntry> config_;
  std::vector<std::pair<std::string, double>> phases_;  // (name, wall_ms)
  std::vector<std::pair<std::string, double>> values_;
  std::string metrics_json_;     // empty = no metrics section
  std::string timeseries_json_;  // empty = no timeseries section
};

// Zeroes every wall-clock-derived value in a JSON document produced by this
// layer: the value after any key named "wall_ms", "ts", "dur", or starting
// with "wall_" becomes 0 (arrays become []). Everything else — structure,
// names, counts, seeds, deterministic metric values — passes through
// untouched, so reports from two identical runs compare byte-for-byte.
[[nodiscard]] std::string StripVolatile(std::string_view json);

}  // namespace painter::obs
