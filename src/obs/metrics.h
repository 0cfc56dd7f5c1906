// Metrics registry: named counters, gauges, and fixed-bucket exponential
// histograms, exported as JSON.
//
// Thread-safety (DESIGN.md's determinism rule): writers touch only a
// per-thread shard (no contention on the hot path), and Collect() merges
// shards in their fixed registration order. Counter and histogram-bucket
// merges are integer sums — order-independent, hence bit-identical across
// runs with the same workload regardless of which thread incremented what.
// Histogram value sums are doubles; they are merged in shard order, which is
// deterministic within a run, and are anyway only used for wall-clock
// measurements whose *values* differ run to run (those fields are emitted
// under `wall_*` keys so consumers can strip them when diffing runs — see
// StripVolatile in report.h).
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

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace painter::obs {

class MetricsRegistry;

// Monotonic event count. Add() takes one uncontended lock, of the calling
// thread's own shard; no process-wide lock after the first call on a thread.
class Counter {
 public:
  void Add(std::uint64_t n = 1);
  [[nodiscard]] std::uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_;
  std::uint32_t id_;
};

// Last-written value. Set() takes the registry mutex — gauges record
// per-phase results (iteration benefit, detection delay), not hot-loop data.
class Gauge {
 public:
  void Set(double v);
  [[nodiscard]] double Value() const;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_;
  std::uint32_t id_;
};

// Fixed-bucket exponential histogram: bucket i counts samples in
// [min_bound * growth^(i-1), min_bound * growth^i), bucket 0 is the
// underflow bucket (< min_bound), the last bucket absorbs overflow.
struct HistogramSpec {
  double min_bound = 1.0;
  double growth = 2.0;
  std::size_t buckets = 32;  // including the underflow bucket
  // True when the recorded values derive from wall-clock time (queue waits,
  // phase durations): their distribution is not reproducible across runs, so
  // the JSON export prefixes the value fields with `wall_` for stripping.
  bool wall_clock = false;
};

// Record() takes one uncontended lock, of the calling thread's own shard:
// the spec is fixed at first registration and copied into the handle, so
// no process-wide lock after the first call on a thread.
class Histogram {
 public:
  void Record(double v);

  [[nodiscard]] std::uint64_t Count() const;
  // Merged bucket counts, underflow first.
  [[nodiscard]] std::vector<std::uint64_t> BucketCounts() const;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, std::uint32_t id, const HistogramSpec& spec)
      : reg_(reg), id_(id), spec_(spec) {}
  MetricsRegistry* reg_;
  std::uint32_t id_;
  HistogramSpec spec_;
};

class MetricsRegistry {
 public:
  // Out of line: the shard deque needs Shard complete at instantiation.
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry. Never destroyed (worker threads may outlive every
  // static destructor). If PAINTER_METRICS=<path> is set in the environment,
  // the merged registry is written there as JSON at process exit.
  static MetricsRegistry& Global();

  // Get-or-create by name. The kind of an existing name must match (throws
  // std::logic_error otherwise). Returned references stay valid for the
  // registry's lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name, HistogramSpec spec = {});

  // Zeroes all values; registrations and handles stay valid.
  void ResetValues();

  // Merged snapshot as JSON: {"counters":{...},"gauges":{...},
  // "histograms":{...}}, each section sorted by metric name. Counters whose
  // merged value is zero are included (a zero is information).
  void WriteJson(std::ostream& os) const;
  [[nodiscard]] std::string ToJson() const;

  // Point reads for tests; throw std::out_of_range on unknown names.
  [[nodiscard]] std::uint64_t CounterValue(std::string_view name) const;
  [[nodiscard]] double GaugeValue(std::string_view name) const;

  // Opaque per-thread shard (defined in metrics.cc; public only so the
  // thread-local shard cache can name the type).
  struct Shard;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct CounterInfo {
    std::string name;
    std::unique_ptr<Counter> handle;
  };
  struct GaugeInfo {
    std::string name;
    double value = 0.0;
    bool set = false;
    std::unique_ptr<Gauge> handle;
  };
  struct HistogramInfo {
    std::string name;
    std::unique_ptr<Histogram> handle;  // carries the spec
  };

  Shard& LocalShard();
  [[nodiscard]] std::uint64_t MergedCounter(std::uint32_t id) const;

  // Never reused: a registry built at a freed one's address cannot match
  // the stale shard pointers other threads still cache under the old one.
  const std::uint64_t serial_;
  mutable std::mutex mu_;
  // deque: growth never relocates existing entries, so handle references and
  // shard indices stay stable without holding mu_ on the read side.
  std::deque<CounterInfo> counters_;
  std::deque<GaugeInfo> gauges_;
  std::deque<HistogramInfo> histograms_;
  std::map<std::string, std::uint32_t, std::less<>> counter_ids_;
  std::map<std::string, std::uint32_t, std::less<>> gauge_ids_;
  std::map<std::string, std::uint32_t, std::less<>> histogram_ids_;
  // Shards in registration order (the deterministic merge order).
  std::deque<std::unique_ptr<Shard>> shards_;
};

// Convenience accessor used throughout the instrumented subsystems.
inline MetricsRegistry& Metrics() { return MetricsRegistry::Global(); }

}  // namespace painter::obs
