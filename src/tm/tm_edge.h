// TM-Edge: the edge-proxy Traffic Manager node (§3.2).
//
// Sits in a cloud-edge network stack inside the enterprise. It maintains one
// tunnel per available destination prefix (resolved from the Advertisement
// Orchestrator via the control channel), continuously probes every tunnel,
// selects the best destination with hysteresis to avoid oscillation, pins
// each flow to a destination for its lifetime (immutable mapping, §3.2), and
// fails over within ~1.3 RTT when the chosen path stops answering (§5.2.3).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "netsim/link.h"
#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/sim.h"
#include "tm/tm_pop.h"
#include "util/rng.h"
#include "workload/flow_store.h"

namespace painter::tm {

struct TunnelConfig {
  std::string name;              // e.g. "2.2.2.0/24 @ PoP-A"
  netsim::IpAddr remote_ip = 0;  // destination address within the prefix
  netsim::PathModel path;        // bidirectional path to the TM-PoP
  TmPop* pop = nullptr;
  // Optional capacity-constrained forward (edge→PoP) hop. When set, packets
  // traverse it before the PathModel delay: queueing inflates measured RTT
  // and overload drops packets, which is how the TM-Edge senses congestion
  // on an ingress path (§1) without any explicit signal.
  netsim::QueuedLink* bottleneck = nullptr;
  // Optional admission hook on the forward (edge→PoP) direction: returning
  // false silently drops the packet before it enters the path. Fault
  // injection uses this for probe blackholing and lossy brownouts; the hook
  // must be deterministic in (packet, send time) — it runs before any RNG
  // draw, so a null or all-pass hook leaves behaviour bit-identical.
  std::function<bool(const netsim::Packet&, double now_s)> admit = nullptr;
};

class TmEdge {
 public:
  struct Config {
    double probe_interval_s = 0.010;
    // Failure declared when a probe goes unanswered for rtt * multiplier
    // (the paper measured typical detection at 1.3 RTT).
    double failover_rtt_multiplier = 1.3;
    double min_probe_timeout_s = 0.004;
    // Only switch destinations when the challenger is better by this margin
    // (oscillation avoidance, following [38]).
    double switch_hysteresis_ms = 3.0;
    double rtt_ewma_alpha = 0.3;
    // Multiplicative jitter applied to path delays (fraction, +/-).
    double delay_jitter = 0.05;
    std::uint64_t seed = 1;
  };

  struct Sample {
    double t = 0.0;
    int chosen = -1;  // tunnel index, -1 = none usable
    std::vector<std::optional<double>> rtt_ms;  // per tunnel; nullopt = down
  };

  struct FailoverEvent {
    double t = 0.0;
    int from = -1;
    int to = -1;
  };

  struct FlowStats {
    int tunnel = -1;
    std::size_t sent = 0;
    std::size_t delivered = 0;  // responses received by the client
  };

  // Flow table of the scripted flows (StartFlow): an open-addressing table
  // read once per packet sent and per response delivered. Iterate via
  // FlowTable::SortedItems() (FlowKey order); slot order is not meaningful.
  using FlowTable = workload::FlowStore<FlowStats>;

  // Picks the tunnel a new flow is pinned to, given the edge's current
  // choice; returning a negative or out-of-range index falls back to
  // `chosen`. Installed by the workload engine for capacity-aware placement;
  // when unset, flows pin to the probing loop's chosen tunnel (the classic
  // lowest-RTT rule). Must be deterministic and must not mutate the edge.
  using FlowPlacer = std::function<int(const netsim::FlowKey& flow,
                                       int chosen)>;

  // Throws std::invalid_argument when `probe_interval_s` is negative,
  // non-finite or rounds to 0 µs.
  TmEdge(netsim::Simulator& sim, Config config,
         std::vector<TunnelConfig> tunnels);

  // Begins probing all tunnels and selects an initial destination.
  void Start();

  // Starts a client flow: `packets` data packets at `interval_s` spacing,
  // pinned to the destination that is best at the first packet.
  void StartFlow(const netsim::FlowKey& flow, std::size_t packets,
                 double interval_s, std::uint32_t payload_bytes = 1400);

  // Samples the per-tunnel state every `interval_s` until `until_s`. Throws
  // std::invalid_argument for an interval that rounds to 0 µs (the loop
  // would never leave the current instant).
  void SampleEvery(double interval_s, double until_s);

  [[nodiscard]] int chosen() const { return chosen_; }
  [[nodiscard]] std::size_t TunnelCount() const { return tunnels_.size(); }
  [[nodiscard]] const std::string& TunnelName(std::size_t i) const {
    return tunnels_[i].config.name;
  }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] const std::vector<FailoverEvent>& failovers() const {
    return failovers_;
  }
  [[nodiscard]] const FlowTable& flows() const { return flows_; }
  [[nodiscard]] std::optional<double> TunnelRttMs(std::size_t i) const;

  void SetFlowPlacer(FlowPlacer placer) { placer_ = std::move(placer); }

 private:
  struct Tunnel {
    TunnelConfig config;
    bool up = false;
    double rtt_ewma_s = 0.0;
    bool have_rtt = false;
    std::uint64_t next_probe_id = 1;
    // (probe id, send time) awaiting reply or timeout: at most about
    // timeout / probe interval entries, so a linear search, no hash nodes.
    std::vector<std::pair<std::uint64_t, double>> outstanding;
  };

  void ProbeTunnel(std::size_t i);
  void OnProbeReply(std::size_t i, std::uint64_t probe_id);
  void OnProbeTimeout(std::size_t i, std::uint64_t probe_id);
  void Reselect();
  [[nodiscard]] double ProbeTimeout(const Tunnel& t) const;
  // Sends a packet over tunnel i; schedules arrival at the TM-PoP (or drops
  // it if the path is down at send time / the bottleneck queue overflows).
  void SendViaTunnel(std::size_t i, netsim::Packet packet);
  // Schedules the packet's arrival at tunnel i's TM-PoP `delay_s` from now.
  void ScheduleArrival(std::size_t i, const netsim::Packet& packet,
                       double delay_s);
  // A probe reached the TM-PoP: it answers at once, and the reply travels
  // back over the tunnel path (drawing the return Jitter()).
  void ProbeAtPop(std::size_t i, std::uint64_t probe_id);
  // Hands an arrived data packet to the tunnel's TM-PoP and wires the
  // response path.
  void DeliverToPop(std::size_t i, const netsim::Packet& packet);
  [[nodiscard]] double Jitter();

  netsim::Simulator* sim_;
  Config config_;
  std::vector<Tunnel> tunnels_;
  util::Rng rng_;
  int chosen_ = -1;
  std::vector<Sample> samples_;
  std::vector<FailoverEvent> failovers_;
  FlowTable flows_;
  FlowPlacer placer_;
};

}  // namespace painter::tm
