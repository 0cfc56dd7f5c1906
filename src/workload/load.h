// Capacity-aware load accounting and destination selection.
//
// The paper's Traffic Manager shifts load across advertised prefixes (§3.2):
// the edge does not only chase the lowest RTT, it must keep ingress PoPs
// under capacity. LoadTracker keeps exact per-PoP offered-rate accounting
// (flows add their service rate when pinned, subtract it when they expire),
// and DestinationPolicy turns that plus the TM-Edge's probe state into a
// pluggable pinning decision:
//
//  - LatencyOnlyPolicy: the classic TM-Edge rule — lowest measured RTT.
//  - LoadAwarePolicy:   lowest-RTT tunnel whose target PoP is under the
//                       utilization threshold; if every usable PoP is over,
//                       it degrades to latency-only (overload is better than
//                       rejecting traffic a competitor PoP could absorb).
//
// Both are deterministic: ties break toward the lower tunnel index, and a
// policy never returns a tunnel whose view says it is unusable (down /
// unmeasured) — the property suite enforces exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace painter::control {
class DeltaBus;
}  // namespace painter::control

namespace painter::workload {

class LoadTracker {
 public:
  // One capacity per PoP, bytes/second of offered load it absorbs cleanly.
  explicit LoadTracker(std::vector<double> pop_capacity_bps);

  void OnAssign(int pop, double bytes_per_s);
  void OnRelease(int pop, double bytes_per_s);

  [[nodiscard]] std::size_t PopCount() const { return capacity_.size(); }
  [[nodiscard]] double OfferedBps(int pop) const;
  [[nodiscard]] double CapacityBps(int pop) const;
  [[nodiscard]] std::uint64_t ActiveFlows(int pop) const;
  // offered / capacity; 0 for an out-of-range pop.
  [[nodiscard]] double Utilization(int pop) const;
  [[nodiscard]] double MaxUtilization() const;

  // Publishes `<prefix>.pop<i>.utilization` gauges to the global registry.
  void ExportGauges(const std::string& prefix = "workload.load") const;

  // Control-plane feed (DESIGN.md §15): publishes a kCapacity delta for
  // every PoP whose utilization crossed into a different coarse band
  // (band = floor(utilization / band_frac)) since the last call. The first
  // call only baselines the bands — a PoP that never moves never publishes.
  // Caller provides the timestamp (the workload tick's sim time).
  void PublishCapacityDeltas(control::DeltaBus& bus, std::uint64_t t_us,
                             double band_frac = 0.25);

 private:
  std::vector<double> capacity_;
  std::vector<double> offered_;
  // Live flows per PoP. Besides observability this pins drain-to-zero
  // exactness: when a PoP's last flow releases, offered_ snaps to 0.0
  // instead of keeping whatever ±ulp residue the assign/release order left
  // (floating-point addition is not associative; the sharded engine applies
  // the same ops in canonical trace order, but exactness should not hinge
  // on that).
  std::vector<std::uint64_t> active_;
  // Last published capacity band per PoP (-1 = not yet baselined), lazily
  // sized by PublishCapacityDeltas.
  std::vector<int> capacity_band_;
  // Single-writer guard. The tracker is deliberately not thread-safe: under
  // the sharded timeline every mutation happens inside the epoch-barrier
  // merge, on the thread that runs the replay, and shard ticks only read
  // snapshots frozen before them. Each mutation does a plain (non-atomic)
  // write here, so a mutation racing a cross-thread mutation or read is a
  // data race TSan reports even in NDEBUG builds — the annotation survives
  // asserts being compiled out.
  std::size_t writer_guard_ = 0;

  void NoteWrite();
};

// What a policy sees about one tunnel at decision time. `usable` mirrors the
// TM-Edge's own notion (probed up with a measured RTT).
struct TunnelView {
  int tunnel = -1;
  int pop = -1;
  bool usable = false;
  double rtt_ms = 0.0;
};

class DestinationPolicy {
 public:
  virtual ~DestinationPolicy() = default;
  // Returns the tunnel index to pin a new flow to, or -1 when no view is
  // usable. Must be a pure function of (views, load) — no RNG, no state.
  [[nodiscard]] virtual int Pick(std::span<const TunnelView> views,
                                 const LoadTracker& load) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

class LatencyOnlyPolicy final : public DestinationPolicy {
 public:
  [[nodiscard]] int Pick(std::span<const TunnelView> views,
                         const LoadTracker& load) const override;
  [[nodiscard]] const char* name() const override { return "latency_only"; }
};

class LoadAwarePolicy final : public DestinationPolicy {
 public:
  explicit LoadAwarePolicy(double utilization_threshold = 0.85)
      : threshold_(utilization_threshold) {}
  [[nodiscard]] int Pick(std::span<const TunnelView> views,
                         const LoadTracker& load) const override;
  [[nodiscard]] const char* name() const override { return "load_aware"; }
  [[nodiscard]] double threshold() const { return threshold_; }

 private:
  double threshold_;
};

}  // namespace painter::workload
