#include "netsim/shard.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace painter::netsim {

namespace {

[[nodiscard]] bool IsPowerOfTwo(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

[[nodiscard]] unsigned Log2(std::size_t n) {
  unsigned b = 0;
  while ((std::size_t{1} << b) < n) ++b;
  return b;
}

}  // namespace

ShardedSimulator::ShardedSimulator(Simulator& control, const Config& config)
    : control_(&control), config_(config) {
  if (!IsPowerOfTwo(config.shards) || config.shards > 256) {
    throw std::invalid_argument{
        "ShardedSimulator: shard count must be a power of two in [1, 256]"};
  }
  if (config.epoch_us == 0) {
    throw std::invalid_argument{"ShardedSimulator: epoch_us must be > 0"};
  }
  shard_shift_ = 64 - Log2(config.shards);
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  stats_.shard_executed_events.assign(config.shards, 0);
}

void ShardedSimulator::RecordBarrier(
    SimTime boundary_us, const std::vector<std::uint64_t>& executed_before) {
  ++stats_.epochs;
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t total = shards_[i]->ExecutedEvents();
    const std::uint64_t in_epoch = total - executed_before[i];
    stats_.shard_executed_events[i] = total;
    lo = std::min(lo, in_epoch);
    hi = std::max(hi, in_epoch);
    stats_.max_queue_depth = std::max<std::uint64_t>(
        stats_.max_queue_depth, shards_[i]->PendingEvents());
  }
  const std::uint64_t skew = shards_.empty() ? 0 : hi - lo;
  stats_.total_epoch_skew_events += skew;
  stats_.max_epoch_skew_events = std::max(stats_.max_epoch_skew_events, skew);
  if (config_.timeseries != nullptr) {
    auto& ts = *config_.timeseries;
    ts.Append("des.shard.epoch_skew_events", boundary_us,
              static_cast<double>(skew));
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ts.Append("des.shard" + std::to_string(i) + ".queue_depth", boundary_us,
                static_cast<double>(shards_[i]->PendingEvents()));
    }
  }
}

void ShardedSimulator::Run(SimTime until_us, const Hook& prepare,
                           const Hook& merge) {
  if (!anchored_) {
    start_us_ = control_->NowUs();
    anchored_ = true;
  }
  std::vector<std::uint64_t> executed_before(shards_.size(), 0);
  while (control_->NowUs() < until_us) {
    const SimTime grid_b = start_us_ + (next_epoch_ + 1) * config_.epoch_us;
    const SimTime b = std::min(grid_b, until_us);
    const std::uint64_t epoch = next_epoch_;
    control_->RunUntilUs(b);
    if (prepare) prepare(epoch, b);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      executed_before[i] = shards_[i]->ExecutedEvents();
      shards_[i]->RunUntilUs(b);
    }
    if (merge) merge(epoch, b);
    RecordBarrier(b, executed_before);
    if (b == grid_b) ++next_epoch_;
  }
}

void ShardedSimulator::ExportMetrics() const {
  auto& m = obs::Metrics();
  m.GetGauge("des.shard.count").Set(static_cast<double>(shards_.size()));
  m.GetGauge("des.shard.epochs").Set(static_cast<double>(stats_.epochs));
  m.GetGauge("des.shard.max_queue_depth")
      .Set(static_cast<double>(stats_.max_queue_depth));
  m.GetGauge("des.shard.max_epoch_skew_events")
      .Set(static_cast<double>(stats_.max_epoch_skew_events));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    m.GetGauge("des.shard" + std::to_string(i) + ".executed_events")
        .Set(static_cast<double>(stats_.shard_executed_events[i]));
  }
}

}  // namespace painter::netsim
