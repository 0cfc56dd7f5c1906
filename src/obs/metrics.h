// Metrics registry: named counters, gauges, and fixed-bucket exponential
// histograms, exported as JSON.
//
// Each handle owns its value: a counter is one relaxed atomic, a gauge an
// atomic value plus an atomic `set` flag, a histogram its buckets and
// summary under its own mutex. The registry itself only maps names to
// handles, under one mutex taken on registration, reset and export — never
// on the record path. Any thread may record; counter and bucket values are
// integer sums, so they do not depend on which thread recorded what.
// Histogram value sums are doubles accumulated in recording order, which is
// deterministic for the single-threaded library, and are anyway only used
// for wall-clock measurements whose *values* differ run to run (those
// fields are emitted under `wall_*` keys so consumers can strip them when
// diffing runs — see StripVolatile in report.h).
//
// Metric naming convention (README "Observability"): lowercase
// dot-separated paths, `<subsystem>.<object>.<event-or-quantity>`, with a
// unit suffix where the value has one (`_ms`, `_us`, `_km`). Per-iteration
// series append `.iterN`: e.g. `orchestrator.learn.iter2.realized_ms`.
//
// Handles returned by the registry are stable for the registry's lifetime;
// call sites cache them in function-local statics:
//
//   static obs::Counter& evals =
//       obs::MetricsRegistry::Global().GetCounter("orchestrator.celf.evals");
//   evals.Add();
//
// ResetValues() zeroes every value but keeps registrations (and therefore
// cached handles) valid — tests use it to isolate runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace painter::obs {

// Monotonic event count: one relaxed atomic add, no lock.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

// Last-written value. Gauges record per-phase results (iteration benefit,
// detection delay), not hot-loop data. A gauge never Set(), or reset or
// unset since its last Set(), is left out of the export.
class Gauge {
 public:
  void Set(double v) {
    value_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] double Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void Unset() {
    set_.store(false, std::memory_order_relaxed);
    value_.store(0.0, std::memory_order_relaxed);
  }
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

// Fixed-bucket exponential histogram: bucket i counts samples in
// [min_bound * growth^(i-1), min_bound * growth^i), bucket 0 is the
// underflow bucket (< min_bound, and NaN), the last bucket absorbs overflow
// (+inf included).
struct HistogramSpec {
  double min_bound = 1.0;
  double growth = 2.0;
  std::size_t buckets = 32;  // including the underflow bucket
  // True when the recorded values derive from wall-clock time (queue waits,
  // phase durations): their distribution is not reproducible across runs, so
  // the JSON export prefixes the value fields with `wall_` for stripping.
  bool wall_clock = false;
};

// Record() takes the histogram's own mutex; the spec is fixed at first
// registration.
class Histogram {
 public:
  void Record(double v);

  [[nodiscard]] std::uint64_t Count() const;
  // Bucket counts, underflow first.
  [[nodiscard]] std::vector<std::uint64_t> BucketCounts() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(const HistogramSpec& spec);
  void Reset();

  const HistogramSpec spec_;
  const double log_growth_;  // log(spec_.growth), hoisted out of Record()
  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry. Never destroyed: call sites cache its handles in
  // function-local statics across translation units, whose destruction
  // order is unspecified, so a static destructor or exit handler may still
  // record or export after every other static is gone. If
  // PAINTER_METRICS=<path> is set in the environment, the registry is
  // written there as JSON at process exit.
  static MetricsRegistry& Global();

  // Get-or-create by name. The kind of an existing name must match (throws
  // std::logic_error otherwise). Returned references stay valid for the
  // registry's lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name, HistogramSpec spec = {});

  // Zeroes all values; registrations and handles stay valid.
  void ResetValues();

  // Unsets (and zeroes) every gauge whose name starts with `prefix`, so the
  // export leaves them out until they are Set() again; handles stay valid.
  void UnsetGauges(std::string_view prefix);

  // Snapshot as JSON: {"counters":{...},"gauges":{...},"histograms":{...}},
  // each section sorted by metric name. Counters whose value is zero are
  // included (a zero is information).
  void WriteJson(std::ostream& os) const;
  [[nodiscard]] std::string ToJson() const;

  // Point reads for tests; throw std::out_of_range on unknown names.
  [[nodiscard]] std::uint64_t CounterValue(std::string_view name) const;
  [[nodiscard]] double GaugeValue(std::string_view name) const;

 private:
  template <typename T>
  using ByName = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  mutable std::mutex mu_;
  // Sorted by name: the export order. Handles live behind unique_ptr, so
  // their addresses survive later insertions.
  ByName<Counter> counters_;
  ByName<Gauge> gauges_;
  ByName<Histogram> histograms_;
};

// Convenience accessor used throughout the instrumented subsystems.
inline MetricsRegistry& Metrics() { return MetricsRegistry::Global(); }

}  // namespace painter::obs
