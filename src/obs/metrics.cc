#include "obs/metrics.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace painter::obs {

// One thread's private slice of every metric. Writers lock only their own
// shard's mutex (uncontended in steady state — each shard has exactly one
// writing thread); Collect/Reset lock the registry, then each shard, in
// registration order. Lock order is always registry -> shard, never the
// reverse, so the two sides cannot deadlock.
struct MetricsRegistry::Shard {
  std::mutex mu;
  std::vector<std::uint64_t> counters;  // by counter id; grown on demand
  struct HistShard {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::vector<HistShard> hists;  // by histogram id; grown on demand
};

namespace {

// Registries get process-unique serials so the thread-local shard cache can
// never confuse a new registry allocated at a freed registry's address.
std::atomic<std::uint64_t> g_registry_serial{1};

thread_local struct ShardCache {
  struct Slot {
    std::uint64_t serial;
    MetricsRegistry::Shard* shard;
  };
  std::vector<Slot> slots;
} t_shards;

std::size_t BucketOf(double v, const HistogramSpec& spec) {
  if (!(v >= spec.min_bound)) return 0;  // underflow (and NaN) bucket
  const std::size_t i =
      1 + static_cast<std::size_t>(
              std::floor(std::log(v / spec.min_bound) / std::log(spec.growth)));
  return std::min(i, spec.buckets - 1);
}

}  // namespace

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  for (const auto& slot : t_shards.slots) {
    if (slot.serial == serial_) return *slot.shard;
  }
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(shard));
  }
  t_shards.slots.push_back({serial_, raw});
  return *raw;
}

MetricsRegistry::MetricsRegistry()
    : serial_(g_registry_serial.fetch_add(1)) {}

MetricsRegistry::~MetricsRegistry() = default;

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
  if (gauge_ids_.count(name) || histogram_ids_.count(name)) {
    throw std::logic_error{"metric kind mismatch: " + std::string(name)};
  }
  auto [it, inserted] =
      counter_ids_.emplace(std::string(name),
                           static_cast<std::uint32_t>(counters_.size()));
  if (inserted) {
    counters_.push_back(CounterInfo{std::string(name), nullptr});
    counters_.back().handle.reset(new Counter(this, it->second));
  }
  return *counters_[it->second].handle;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counter_ids_.count(name) || histogram_ids_.count(name)) {
    throw std::logic_error{"metric kind mismatch: " + std::string(name)};
  }
  auto [it, inserted] = gauge_ids_.emplace(
      std::string(name), static_cast<std::uint32_t>(gauges_.size()));
  if (inserted) {
    gauges_.push_back(GaugeInfo{std::string(name), 0.0, false, nullptr});
    gauges_.back().handle.reset(new Gauge(this, it->second));
  }
  return *gauges_[it->second].handle;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         HistogramSpec spec) {
  if (spec.buckets < 2 || spec.growth <= 1.0 || spec.min_bound <= 0.0) {
    throw std::invalid_argument{"HistogramSpec: need buckets >= 2, growth > 1, "
                                "min_bound > 0"};
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (counter_ids_.count(name) || gauge_ids_.count(name)) {
    throw std::logic_error{"metric kind mismatch: " + std::string(name)};
  }
  auto [it, inserted] = histogram_ids_.emplace(
      std::string(name), static_cast<std::uint32_t>(histograms_.size()));
  if (inserted) {
    histograms_.push_back(HistogramInfo{std::string(name), nullptr});
    histograms_.back().handle.reset(new Histogram(this, it->second, spec));
  }
  return *histograms_[it->second].handle;
}

void Counter::Add(std::uint64_t n) {
  MetricsRegistry::Shard& s = reg_->LocalShard();
  std::lock_guard<std::mutex> lock(s.mu);
  if (id_ >= s.counters.size()) s.counters.resize(id_ + 1, 0);
  s.counters[id_] += n;
}

std::uint64_t MetricsRegistry::MergedCounter(std::uint32_t id) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (id < shard->counters.size()) total += shard->counters[id];
  }
  return total;
}

std::uint64_t Counter::Value() const {
  std::lock_guard<std::mutex> lock(reg_->mu_);
  return reg_->MergedCounter(id_);
}

void Gauge::Set(double v) {
  std::lock_guard<std::mutex> lock(reg_->mu_);
  reg_->gauges_[id_].value = v;
  reg_->gauges_[id_].set = true;
}

double Gauge::Value() const {
  std::lock_guard<std::mutex> lock(reg_->mu_);
  return reg_->gauges_[id_].value;
}

void Histogram::Record(double v) {
  MetricsRegistry::Shard& s = reg_->LocalShard();
  std::lock_guard<std::mutex> lock(s.mu);
  if (id_ >= s.hists.size()) s.hists.resize(id_ + 1);
  auto& h = s.hists[id_];
  if (h.buckets.empty()) h.buckets.assign(spec_.buckets, 0);
  ++h.buckets[BucketOf(v, spec_)];
  if (h.count == 0 || v < h.min) h.min = v;
  if (h.count == 0 || v > h.max) h.max = v;
  ++h.count;
  h.sum += v;
}

std::uint64_t Histogram::Count() const {
  std::lock_guard<std::mutex> lock(reg_->mu_);
  std::uint64_t total = 0;
  for (const auto& shard : reg_->shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    if (id_ < shard->hists.size()) total += shard->hists[id_].count;
  }
  return total;
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::lock_guard<std::mutex> lock(reg_->mu_);
  std::vector<std::uint64_t> out(spec_.buckets, 0);
  for (const auto& shard : reg_->shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    if (id_ >= shard->hists.size()) continue;
    const auto& h = shard->hists[id_];
    for (std::size_t b = 0; b < h.buckets.size() && b < out.size(); ++b) {
      out[b] += h.buckets[b];
    }
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    shard->counters.assign(shard->counters.size(), 0);
    shard->hists.assign(shard->hists.size(), {});
  }
  for (auto& g : gauges_) {
    g.value = 0.0;
    g.set = false;
  }
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w{os};
  w.BeginObject();

  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, id] : counter_ids_) {  // map: sorted by name
    w.Key(name);
    w.Number(MergedCounter(id));
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, id] : gauge_ids_) {
    if (!gauges_[id].set) continue;
    w.Key(name);
    w.Number(gauges_[id].value);
  }
  w.EndObject();

  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, id] : histogram_ids_) {
    const HistogramSpec& spec = histograms_[id].handle->spec_;
    // Merge this histogram across shards in registration order.
    std::vector<std::uint64_t> buckets(spec.buckets, 0);
    std::uint64_t count = 0;
    double sum = 0.0, mn = 0.0, mx = 0.0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> slock(shard->mu);
      if (id >= shard->hists.size()) continue;
      const auto& h = shard->hists[id];
      if (h.count == 0) continue;
      for (std::size_t b = 0; b < h.buckets.size() && b < buckets.size(); ++b) {
        buckets[b] += h.buckets[b];
      }
      if (count == 0 || h.min < mn) mn = h.min;
      if (count == 0 || h.max > mx) mx = h.max;
      count += h.count;
      sum += h.sum;
    }
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Number(count);
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
    if (count > 0) {
      w.Key(sum_key);
      w.Number(sum);
      w.Key(min_key);
      w.Number(mn);
      w.Key(max_key);
      w.Number(mx);
    }
    w.Key(buckets_key);
    w.BeginArray();
    for (const std::uint64_t b : buckets) w.Number(b);
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
  const auto it = counter_ids_.find(name);
  if (it == counter_ids_.end()) {
    throw std::out_of_range{"no counter named " + std::string(name)};
  }
  return MergedCounter(it->second);
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauge_ids_.find(name);
  if (it == gauge_ids_.end()) {
    throw std::out_of_range{"no gauge named " + std::string(name)};
  }
  return gauges_[it->second].value;
}

}  // namespace painter::obs
