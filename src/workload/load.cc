#include "workload/load.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "obs/metrics.h"

namespace painter::workload {
namespace {

bool InRange(int pop, std::size_t n) {
  return pop >= 0 && static_cast<std::size_t>(pop) < n;
}

// Lowest-RTT usable view among those satisfying `admit`; ties break toward
// the lower tunnel index because views arrive in index order and only a
// strictly better RTT displaces the incumbent.
template <typename Admit>
int BestByRtt(std::span<const TunnelView> views, Admit admit) {
  int best = -1;
  double best_rtt = 0.0;
  for (const TunnelView& v : views) {
    if (!v.usable || !admit(v)) continue;
    if (best < 0 || v.rtt_ms < best_rtt) {
      best = v.tunnel;
      best_rtt = v.rtt_ms;
    }
  }
  return best;
}

}  // namespace

LoadTracker::LoadTracker(std::vector<double> pop_capacity_bps)
    : capacity_(std::move(pop_capacity_bps)),
      offered_(capacity_.size(), 0.0),
      active_(capacity_.size(), 0) {}

void LoadTracker::NoteWrite() {
  // Plain non-atomic write: concurrent mutation (or a concurrent read of
  // the gauges while another thread mutates) is a race on this member that
  // TSan flags even with asserts compiled out. See the header comment.
  writer_guard_ = std::hash<std::thread::id>{}(std::this_thread::get_id());
}

void LoadTracker::OnAssign(int pop, double bytes_per_s) {
  if (!InRange(pop, offered_.size())) return;
  NoteWrite();
  offered_[static_cast<std::size_t>(pop)] += bytes_per_s;
  ++active_[static_cast<std::size_t>(pop)];
}

void LoadTracker::OnRelease(int pop, double bytes_per_s) {
  if (!InRange(pop, offered_.size())) return;
  NoteWrite();
  const auto p = static_cast<std::size_t>(pop);
  if (active_[p] > 0) --active_[p];
  offered_[p] =
      active_[p] == 0 ? 0.0 : std::max(0.0, offered_[p] - bytes_per_s);
}

std::uint64_t LoadTracker::ActiveFlows(int pop) const {
  return InRange(pop, active_.size()) ? active_[static_cast<std::size_t>(pop)]
                                      : 0;
}

double LoadTracker::OfferedBps(int pop) const {
  return InRange(pop, offered_.size()) ? offered_[static_cast<std::size_t>(pop)]
                                       : 0.0;
}

double LoadTracker::CapacityBps(int pop) const {
  return InRange(pop, capacity_.size())
             ? capacity_[static_cast<std::size_t>(pop)]
             : 0.0;
}

double LoadTracker::Utilization(int pop) const {
  if (!InRange(pop, capacity_.size())) return 0.0;
  const double cap = capacity_[static_cast<std::size_t>(pop)];
  if (cap <= 0.0) return 0.0;
  return offered_[static_cast<std::size_t>(pop)] / cap;
}

double LoadTracker::MaxUtilization() const {
  double m = 0.0;
  for (std::size_t p = 0; p < capacity_.size(); ++p) {
    m = std::max(m, Utilization(static_cast<int>(p)));
  }
  return m;
}

void LoadTracker::ExportGauges(const std::string& prefix) const {
  for (std::size_t p = 0; p < capacity_.size(); ++p) {
    obs::Metrics()
        .GetGauge(prefix + ".pop" + std::to_string(p) + ".utilization")
        .Set(Utilization(static_cast<int>(p)));
  }
}

int LatencyOnlyPolicy::Pick(std::span<const TunnelView> views,
                            const LoadTracker& /*load*/) const {
  return BestByRtt(views, [](const TunnelView&) { return true; });
}

int LoadAwarePolicy::Pick(std::span<const TunnelView> views,
                          const LoadTracker& load) const {
  const int under = BestByRtt(views, [&](const TunnelView& v) {
    return load.Utilization(v.pop) < threshold_;
  });
  if (under >= 0) return under;
  // Every usable PoP is saturated: fall back to pure latency rather than
  // refusing traffic (the threshold shapes load, it is not an admission cap).
  return BestByRtt(views, [](const TunnelView&) { return true; });
}

}  // namespace painter::workload
