// Typed streaming-delta bus between telemetry producers and the control
// plane (DESIGN.md §15).
//
// Producers publish small typed records — "UG latency moved", "session
// went down", "PoP crossed a utilization band" — as they happen on the DES
// timeline. The library's producer is ChurnEnvironment (session flaps and
// UG latency drift, control/churn.h); tests publish every kind directly. The ControlPlaneService drains the bus at its wake events and
// translates each batch into targeted invalidation of the orchestrator's
// incremental CELF state.
//
// Contract:
//  - Single-threaded, DES-ordered: publishes and drains happen from simulator
//    event handlers on one thread; records drain in publish order (FIFO).
//  - Bounded: the ring holds `capacity` records; overflow drops the OLDEST
//    record and counts it (control.bus.dropped). The control plane treats a
//    nonzero drop count as "my view may be stale" — the next full episode
//    re-derives everything from the model anyway, so drops cost freshness,
//    never correctness.
//  - Null-safe producers: ChurnEnvironment takes a `DeltaBus*` defaulting to
//    nullptr and publishes nothing when unset, leaving the run byte-identical
//    to a bus-less run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "netsim/sim.h"

namespace painter::control {

// What kind of world change a record describes. The `id` and `value` fields
// of Delta are interpreted per kind:
//   kUgLatency — id = UG (or tunnel, for TM-side producers); value = |Δrtt|
//                in ms since the producer's last published measurement.
//   kPopLoad   — id = PoP index; value = current utilization (offered/cap).
//   kSession   — id = peering session; value = 1 down, 0 back up.
//   kTopology  — id = producer-scoped target (tunnel/PoP of a fault plan);
//                value = 1 fault onset, 0 cleared.
//   kCapacity  — id = PoP index; value = current utilization, published on
//                coarse utilization-band crossings.
enum class DeltaKind : std::uint8_t {
  kUgLatency = 0,
  kPopLoad,
  kSession,
  kTopology,
  kCapacity,
};
inline constexpr std::size_t kDeltaKindCount = 5;

[[nodiscard]] const char* DeltaKindName(DeltaKind kind);

struct Delta {
  DeltaKind kind = DeltaKind::kUgLatency;
  netsim::SimTime t_us = 0;  // sim time of the underlying change (onset)
  std::uint32_t id = 0;
  double value = 0.0;
};

class DeltaBus {
 public:
  explicit DeltaBus(std::size_t capacity = 4096);

  void Publish(const Delta& delta);

  // Appends every queued record to `out` in publish order and empties the
  // bus. Returns the number of records drained.
  std::size_t DrainInto(std::vector<Delta>& out);

  [[nodiscard]] std::size_t Size() const { return queue_.size(); }
  [[nodiscard]] std::size_t Capacity() const { return capacity_; }

  struct Stats {
    std::uint64_t published[kDeltaKindCount] = {};
    std::uint64_t dropped = 0;  // oldest records evicted by overflow
    std::uint64_t drained = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::size_t capacity_;
  std::deque<Delta> queue_;
  Stats stats_;
};

}  // namespace painter::control
