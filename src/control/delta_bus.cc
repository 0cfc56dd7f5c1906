#include "control/delta_bus.h"

#include "obs/metrics.h"

namespace painter::control {
namespace {

struct BusMetrics {
  obs::Counter& published =
      obs::Metrics().GetCounter("control.bus.published");
  obs::Counter& dropped = obs::Metrics().GetCounter("control.bus.dropped");
  obs::Counter& drained = obs::Metrics().GetCounter("control.bus.drained");

  static BusMetrics& Get() {
    static BusMetrics m;
    return m;
  }
};

}  // namespace

const char* DeltaKindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kUgLatency:
      return "ug_latency";
    case DeltaKind::kSession:
      return "session";
  }
  return "unknown";
}

DeltaBus::DeltaBus(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void DeltaBus::Publish(const Delta& delta) {
  if (queue_.size() >= capacity_) {
    queue_.pop_front();  // drop-oldest: the control plane prefers fresh news
    ++stats_.dropped;
    BusMetrics::Get().dropped.Add();
  }
  queue_.push_back(delta);
  ++stats_.published[static_cast<std::size_t>(delta.kind)];
  BusMetrics::Get().published.Add();
}

std::size_t DeltaBus::DrainInto(std::vector<Delta>& out) {
  const std::size_t n = queue_.size();
  out.insert(out.end(), queue_.begin(), queue_.end());
  queue_.clear();
  stats_.drained += n;
  BusMetrics::Get().drained.Add(n);
  return n;
}

}  // namespace painter::control
