#include "workload/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "netsim/packet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace painter::workload {
namespace {

// Same counter names as the serial engine (engine.cc): both paths report
// into the same registry entries, so dashboards and the metrics lint see one
// workload.engine.* family regardless of which engine ran.
struct ReplayMetrics {
  obs::Counter& started =
      obs::Metrics().GetCounter("workload.engine.flows_started");
  obs::Counter& rejected =
      obs::Metrics().GetCounter("workload.engine.flows_rejected");
  obs::Counter& completed =
      obs::Metrics().GetCounter("workload.engine.flows_completed");
  obs::Counter& down_picks =
      obs::Metrics().GetCounter("workload.engine.down_picks");

  static ReplayMetrics& Get() {
    static ReplayMetrics m;
    return m;
  }
};

netsim::ShardedSimulator::Config DesConfigFor(
    const ShardedReplayConfig& config) {
  return netsim::ShardedSimulator::Config{
      .shards = config.shards,
      // Epoch = admission tick (see the header's epoch-length rationale).
      .epoch_us = netsim::UsFromSeconds(config.engine.tick_s),
      .timeseries = config.shard_timeseries};
}

}  // namespace

ShardedWorkloadReplay::ShardedWorkloadReplay(
    netsim::Simulator& control, tm::TmEdge& edge, std::vector<int> tunnel_pop,
    LoadTracker& load, const DestinationPolicy& policy, const Trace& trace,
    ShardedReplayConfig config)
    : control_(&control),
      des_(control, DesConfigFor(config)),
      edge_(&edge),
      tunnel_pop_(std::move(tunnel_pop)),
      load_(&load),
      policy_(&policy),
      trace_(&trace),
      config_(std::move(config)),
      shards_(des_.ShardCount()),
      tick_us_(des_.EpochUs()) {
  ValidateEngineConfig(config_.engine);
}

std::size_t ShardedWorkloadReplay::BucketOf(std::uint64_t expiry_us) const {
  // Identical to WorkloadEngine::BucketOf: bucket k drains at trace time
  // (k+1) * tick_us_, the last bucket absorbs post-trace expiries.
  const auto bucket = static_cast<std::size_t>(expiry_us / tick_us_);
  return std::min(bucket, bucket_count_ - 1);
}

std::size_t ShardedWorkloadReplay::Concurrent() const {
  std::size_t live = 0;
  for (const Shard& sh : shards_) live += sh.live;
  return live;
}

void ShardedWorkloadReplay::Start() {
  if (started_) {
    throw std::logic_error{"ShardedWorkloadReplay: Start() called twice"};
  }
  started_ = true;
  start_us_ = control_->NowUs();

  // Partition the trace once: event i belongs to shard owner_[i], the top
  // bits of its flow-key fingerprint (the flow store's own rule, via
  // ShardedSimulator::ShardOf).
  const std::vector<FlowEvent>& events = trace_->events;
  if (events.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument{
        "ShardedWorkloadReplay: trace too large for 32-bit event indices"};
  }
  if (shards_.size() == 1) {
    owner_.assign(events.size(), 0);
  } else {
    owner_.resize(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      owner_[i] = static_cast<std::uint8_t>(des_.ShardOf(
          netsim::FlowKeyFingerprint(WorkloadEngine::KeyFor(events[i]))));
    }
  }

  // The serial engine's bucket grid: one bucket per tick of the trace plus
  // one that absorbs post-trace expiries. The live pins span at most
  // max_duration_s / tick + 2 consecutive buckets, so a ring of that many
  // slots gives each live bucket its own (DESIGN.md §13). The cap is taken
  // at most the grid's length, where the ring has one slot per bucket.
  bucket_count_ =
      static_cast<std::size_t>(trace_->duration_us / tick_us_) + 2;
  const double cap_s =
      std::min(config_.engine.max_duration_s,
               netsim::SecondsFromUs(bucket_count_ * tick_us_));
  ring_size_ = std::min<std::size_t>(
      bucket_count_, netsim::UsFromSeconds(cap_s) / tick_us_ + 2);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].ring.resize(ring_size_);
    // Every shard ticks on its own heap, on the shared absolute grid; the
    // barrier guarantees tick k has run on every shard before merge k.
    des_.shard(s).ScheduleAtUs(start_us_ + tick_us_,
                               [this, s]() { ShardTick(s); });
  }

  if (config_.engine.place_edge_flows) {
    // Scripted per-packet flows started through TmEdge::StartFlow run as
    // control events, so they see live edge views plus the authoritative
    // load as of the last barrier — deterministic at any shard count
    // because the control timeline is serial.
    edge_->SetFlowPlacer([this](const netsim::FlowKey&, int chosen) {
      SnapshotViews(*edge_, tunnel_pop_, views_);
      const int pick = policy_->Pick(views_, *load_);
      return pick >= 0 ? pick : chosen;
    });
  }

  // Same series the serial engine registers; samplers run as control events
  // while the shards are parked at the barrier, and the values (total
  // occupancy, merged per-PoP utilization) are shard-count-invariant.
  if (config_.engine.timeseries != nullptr) {
    config_.engine.timeseries->RegisterSampler(
        "workload.engine.concurrent_flows",
        [this]() { return static_cast<double>(Concurrent()); });
    for (std::size_t p = 0; p < load_->PopCount(); ++p) {
      config_.engine.timeseries->RegisterSampler(
          "workload.load.pop" + std::to_string(p) + ".utilization",
          [this, p]() { return load_->Utilization(static_cast<int>(p)); });
    }
  }
}

void ShardedWorkloadReplay::RunUs(netsim::SimTime until_us) {
  if (!started_) {
    throw std::logic_error{"ShardedWorkloadReplay: Run() before Start()"};
  }
  des_.Run(
      until_us,
      [this](std::uint64_t epoch, netsim::SimTime b) { Prepare(epoch, b); },
      [this](std::uint64_t epoch, netsim::SimTime b) { Merge(epoch, b); });
  des_.ExportMetrics();
}

void ShardedWorkloadReplay::Prepare(std::uint64_t /*epoch*/,
                                    netsim::SimTime boundary_us) {
  epoch_admit_ = false;
  epoch_final_ = false;
  epoch_pick_ = -1;
  epoch_pop_ = -1;
  due_end_ = global_cursor_;
  if (ticks_stopped_) return;
  // A Run() horizon can end mid-epoch; that barrier has no tick on it, so
  // there is nothing to decide (the flags above already say "no work").
  if ((boundary_us - start_us_) % tick_us_ != 0) return;
  if (final_requested_) {
    epoch_final_ = true;  // this tick: drain everything, admit nothing
    return;
  }
  // The epoch's arrivals: every trace event due by the tick. Each shard
  // admits the ones it owns; the merge walks all of them in trace order.
  const std::uint64_t now_us = boundary_us - start_us_;
  const std::vector<FlowEvent>& events = trace_->events;
  while (due_end_ < events.size() && events[due_end_].start_us <= now_us) {
    ++due_end_;
  }
  // The per-epoch destination decision. Views and load are frozen until the
  // merge, so this Pick is exactly the one every arrival of the tick would
  // have computed — hoisted out of the per-flow path (header, "cheaper").
  SnapshotViews(*edge_, tunnel_pop_, views_);
  const int pick = policy_->Pick(views_, *load_);
  if (pick < 0 || static_cast<std::size_t>(pick) >= views_.size()) {
    return;  // reject epoch: epoch_pick_ stays -1
  }
  epoch_pick_ = pick;
  if (!views_[static_cast<std::size_t>(pick)].usable) {
    return;  // down-pick epoch: pick recorded, admit stays false
  }
  epoch_pop_ = views_[static_cast<std::size_t>(pick)].pop;
  epoch_admit_ = true;
}

void ShardedWorkloadReplay::ShardTick(std::size_t s) {
  Shard& sh = shards_[s];
  netsim::Simulator& sim = des_.shard(s);
  const std::uint64_t now_us = sim.NowUs() - start_us_;
  const std::uint64_t expected_us = (tick_index_ + 1) * tick_us_;
  sh.max_tick_skew_us = std::max(
      sh.max_tick_skew_us,
      now_us > expected_us ? now_us - expected_us : expected_us - now_us);
  // Global trace done and (drained or past end), decided at the previous
  // merge: this tick's merge releases whatever outlived the trace.
  if (epoch_final_) return;

  // In a reject or down-pick epoch the arrivals are consumed unpinned; the
  // merge does the (count-only) stats from the global range.
  if (epoch_admit_) {
    const std::vector<FlowEvent>& events = trace_->events;
    for (std::size_t i = global_cursor_; i < due_end_; ++i) {
      if (owner_[i] != s) continue;
      FilePin(sh, static_cast<std::uint32_t>(i),
              TimingFor(events[i], config_.engine));
    }
  }
  // Tick k + 1 fires at (k + 2) * tick; the merge advances tick_index_.
  sim.ScheduleAtUs(start_us_ + (tick_index_ + 2) * tick_us_,
                   [this, s]() { ShardTick(s); });
}

void ShardedWorkloadReplay::FilePin(Shard& sh, std::uint32_t trace_idx,
                                    const FlowTiming& timing) {
  ++sh.live;
  const std::size_t bucket = BucketOf(timing.expiry_us);
  // Only a flow starting after the last bucket was released is clamped
  // behind the tick: it stays live and is never released, as in the serial
  // engine.
  if (bucket < tick_index_) return;
  std::uint32_t node = sh.free_pin;
  if (node != kNoPin) {
    sh.free_pin = sh.PinAt(node).next;
  } else {
    if (sh.pool_size % kPinsPerChunk == 0) {
      sh.pool.push_back(std::unique_ptr<Pin[]>(new Pin[kPinsPerChunk]));
    }
    node = sh.pool_size++;
  }
  sh.PinAt(node) = Pin{timing.rate_bps, trace_idx, epoch_pop_, kNoPin};
  Bucket& b = sh.ring[RingSlot(bucket)];
  if (b.head == kNoPin) {
    b.head = node;
  } else {
    sh.PinAt(b.tail).next = node;
  }
  b.tail = node;
}

std::uint64_t ShardedWorkloadReplay::ReleaseBucket(std::size_t bucket) {
  // Each shard's chain is in trace order; a min-scan over the chain heads
  // releases the bucket in trace order at any shard count (header:
  // determinism contract).
  const std::size_t slot = RingSlot(bucket);
  std::uint64_t released = 0;
  while (true) {
    Shard* next = nullptr;
    std::uint32_t next_idx = 0;
    for (Shard& sh : shards_) {
      const std::uint32_t head = sh.ring[slot].head;
      if (head == kNoPin) continue;
      if (next == nullptr || sh.PinAt(head).trace_idx < next_idx) {
        next = &sh;
        next_idx = sh.PinAt(head).trace_idx;
      }
    }
    if (next == nullptr) break;
    const std::uint32_t node = next->ring[slot].head;
    Pin& pin = next->PinAt(node);
    load_->OnRelease(pin.pop, pin.rate_bps);
    next->ring[slot].head = pin.next;
    pin.next = next->free_pin;
    next->free_pin = node;
    --next->live;
    ++released;
  }
  for (Shard& sh : shards_) sh.ring[slot].tail = kNoPin;
  return released;
}

void ShardedWorkloadReplay::Merge(std::uint64_t /*epoch*/,
                                  netsim::SimTime boundary_us) {
  if (ticks_stopped_) return;
  if ((boundary_us - start_us_) % tick_us_ != 0) return;  // no tick ran
  const std::uint64_t now_us = boundary_us - start_us_;
  const std::vector<FlowEvent>& events = trace_->events;

  // Arrival-order work: on_arrival, the count stats and the load assigns
  // walk the *global* trace range, so hook order, counts and the
  // floating-point fold order are independent of the partition. Every shard
  // admitted exactly its events of this range; in an admit epoch every event
  // in it was pinned. Assigns before releases: the serial tick's structure.
  for (std::size_t i = global_cursor_; i < due_end_; ++i) {
    const FlowEvent& event = events[i];
    if (config_.engine.on_arrival) config_.engine.on_arrival(event);
    if (epoch_admit_) {
      if (load_->Utilization(epoch_pop_) >= 1.0) {
        ++stats_.saturated_assignments;
      }
      load_->OnAssign(epoch_pop_, TimingFor(event, config_.engine).rate_bps);
      stats_.bytes_offered += static_cast<double>(event.bytes);
    }
  }
  const auto due = static_cast<std::uint64_t>(due_end_ - global_cursor_);
  global_cursor_ = due_end_;
  stats_.arrivals += due;
  if (epoch_admit_) {
    // Offered load only grew since the last release, so the post-assign
    // utilization is the epoch's high-water mark — one read replaces the
    // serial engine's per-admission watermark, bit-exactly.
    stats_.max_utilization =
        std::max(stats_.max_utilization, load_->Utilization(epoch_pop_));
  }
  if (due > 0) {
    if (epoch_admit_) {
      stats_.started += due;
      ReplayMetrics::Get().started.Add(due);
    } else if (epoch_pick_ >= 0) {
      // Policy contract breach (picked an unusable tunnel) — same loud
      // accounting as the serial engine, batched per epoch.
      stats_.down_picks += due;
      stats_.rejected += due;
      ReplayMetrics::Get().down_picks.Add(due);
      ReplayMetrics::Get().rejected.Add(due);
      obs::FlightRecorder::Record(
          boundary_us, "workload.engine", obs::Severity::kError, "down_pick",
          {{"tunnel", static_cast<double>(epoch_pick_)},
           {"flows", static_cast<double>(due)}});
    } else {
      stats_.rejected += due;
      ReplayMetrics::Get().rejected.Add(due);
    }
  }

  // Occupancy after the admissions, before the expiries: the serial
  // engine's peak point. (In the final epoch nothing was admitted, so this
  // reads the previous tick's post-release count, already below the peak.)
  stats_.peak_concurrent = std::max<std::uint64_t>(
      stats_.peak_concurrent, static_cast<std::uint64_t>(Concurrent()));
  for (const Shard& sh : shards_) {
    stats_.max_tick_skew_us =
        std::max(stats_.max_tick_skew_us, sh.max_tick_skew_us);
  }

  // Releases: the tick's bucket, or in the final epoch every bucket that
  // can still hold a pin, bucket-major (the serial engine's final drain).
  std::uint64_t released = 0;
  if (epoch_final_) {
    const std::size_t end =
        std::min(bucket_count_, tick_index_ + ring_size_);
    for (std::size_t b = tick_index_; b < end; ++b) {
      released += ReleaseBucket(b);
    }
  } else if (tick_index_ < bucket_count_) {
    released = ReleaseBucket(tick_index_);
  }
  if (released > 0) {
    stats_.completed += released;
    ReplayMetrics::Get().completed.Add(released);
  }
  ++tick_index_;
  if (++tick_slot_ == ring_size_) tick_slot_ = 0;

  if (epoch_final_) {
    // The final tick ran on every shard and its releases were applied
    // above; the replay is quiescent from here on.
    ticks_stopped_ = true;
    load_->ExportGauges();
    return;
  }
  if (!final_requested_) {
    const bool trace_done = global_cursor_ >= events.size();
    const bool drained = Concurrent() == 0;
    const bool past_end = now_us >= trace_->duration_us + 1'000'000u;
    if (trace_done && (drained || past_end)) {
      // Decided here, executed next tick (one tick later than the serial
      // engine's same-tick drain; shard-count-invariant either way).
      final_requested_ = true;
    }
  }
}

std::string ShardedWorkloadReplay::CanonicalStats() const {
  // "%.17g" round-trips doubles exactly: byte equality of this string is
  // bit equality of every double in it.
  std::string out;
  char buf[64];
  const auto add_u = [&](const char* k, std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%s=%llu\n",
                  k, static_cast<unsigned long long>(v));
    out += buf;
  };
  const auto add_d = [&](const char* k, double v) {
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", k, v);
    out += buf;
  };
  add_u("arrivals", stats_.arrivals);
  add_u("started", stats_.started);
  add_u("rejected", stats_.rejected);
  add_u("completed", stats_.completed);
  add_u("peak_concurrent", stats_.peak_concurrent);
  add_u("down_picks", stats_.down_picks);
  add_u("saturated_assignments", stats_.saturated_assignments);
  add_d("bytes_offered", stats_.bytes_offered);
  add_d("max_utilization", stats_.max_utilization);
  add_u("max_tick_skew_us", stats_.max_tick_skew_us);
  add_u("live_flows", static_cast<std::uint64_t>(Concurrent()));
  for (std::size_t p = 0; p < load_->PopCount(); ++p) {
    const int pop = static_cast<int>(p);
    std::snprintf(buf, sizeof buf, "pop%zu.offered_bps=%.17g\n", p,
                  load_->OfferedBps(pop));
    out += buf;
    std::snprintf(buf, sizeof buf, "pop%zu.active_flows=%llu\n", p,
                  static_cast<unsigned long long>(load_->ActiveFlows(pop)));
    out += buf;
  }
  return out;
}

}  // namespace painter::workload
