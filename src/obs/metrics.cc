#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace painter::obs {

namespace {

std::size_t BucketOf(double v, const HistogramSpec& spec, double log_growth) {
  if (!(v >= spec.min_bound)) return 0;  // underflow (and NaN) bucket
  const double k = std::floor(std::log(v / spec.min_bound) / log_growth);
  // Clamp before the cast: +inf, or anything past std::size_t, would make
  // the conversion undefined. Finite in-range values are unchanged.
  return static_cast<std::size_t>(
      std::min(1.0 + k, static_cast<double>(spec.buckets - 1)));
}

// Get-or-create `name` in `own`; `a` and `b` hold the other two kinds.
template <typename T, typename A, typename B, typename Make>
T& GetOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>& own,
               const A& a, const B& b, std::string_view name, Make make) {
  if (a.contains(name) || b.contains(name)) {
    throw std::logic_error{"metric kind mismatch: " + std::string(name)};
  }
  auto it = own.find(name);
  if (it == own.end()) {
    it = own.emplace(std::string(name), std::unique_ptr<T>(make())).first;
  }
  return *it->second;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = [] {
    auto* reg = new MetricsRegistry();  // never destroyed, by design
    if (const char* path = std::getenv("PAINTER_METRICS")) {
      static std::string out_path;
      out_path = path;
      std::atexit([] {
        std::ofstream os(out_path);
        if (os) Global().WriteJson(os);
      });
    }
    return reg;
  }();
  return *g;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(counters_, gauges_, histograms_, name,
                     [] { return new Counter(); });
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(gauges_, counters_, histograms_, name,
                     [] { return new Gauge(); });
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         HistogramSpec spec) {
  if (spec.buckets < 2 || spec.growth <= 1.0 || spec.min_bound <= 0.0) {
    throw std::invalid_argument{"HistogramSpec: need buckets >= 2, growth > 1, "
                                "min_bound > 0"};
  }
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(histograms_, counters_, gauges_, name,
                     [&spec] { return new Histogram(spec); });
}

Histogram::Histogram(const HistogramSpec& spec)
    : spec_(spec), log_growth_(std::log(spec.growth)),
      buckets_(spec.buckets, 0) {}

void Histogram::Record(double v) {
  const std::size_t bucket = BucketOf(v, spec_, log_growth_);
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[bucket];
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
  sum_ += v;
}

std::uint64_t Histogram::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) g->Unset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::UnsetGauges(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = gauges_.lower_bound(prefix);
       it != gauges_.end() && it->first.starts_with(prefix); ++it) {
    it->second->Unset();
  }
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w{os};
  w.BeginObject();

  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, c] : counters_) {
    w.Key(name);
    w.Number(c->Value());
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, g] : gauges_) {
    if (!g->set_.load(std::memory_order_relaxed)) continue;
    w.Key(name);
    w.Number(g->Value());
  }
  w.EndObject();

  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, h] : histograms_) {
    const HistogramSpec& spec = h->spec_;
    std::lock_guard<std::mutex> hlock(h->mu_);
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Number(h->count_);
    w.Key("min_bound");
    w.Number(spec.min_bound);
    w.Key("growth");
    w.Number(spec.growth);
    // Wall-clock-derived values get `wall_` keys: they are legitimate
    // measurements but not reproducible across runs, and StripVolatile
    // removes them when diffing reports for determinism.
    const char* sum_key = spec.wall_clock ? "wall_sum" : "sum";
    const char* min_key = spec.wall_clock ? "wall_min" : "min";
    const char* max_key = spec.wall_clock ? "wall_max" : "max";
    const char* buckets_key = spec.wall_clock ? "wall_buckets" : "buckets";
    if (h->count_ > 0) {
      w.Key(sum_key);
      w.Number(h->sum_);
      w.Key(min_key);
      w.Number(h->min_);
      w.Key(max_key);
      w.Number(h->max_);
    }
    w.Key(buckets_key);
    w.BeginArray();
    for (const std::uint64_t b : h->buckets_) w.Number(b);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  os << '\n';
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    throw std::out_of_range{"no counter named " + std::string(name)};
  }
  return it->second->Value();
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    throw std::out_of_range{"no gauge named " + std::string(name)};
  }
  return it->second->Value();
}

}  // namespace painter::obs
