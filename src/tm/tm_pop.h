// TM-PoP: the cloud-side Traffic Manager node (§3.2, Appendix D).
//
// Lives at a PoP, integrated with the front-ends: decapsulates tunneled
// client traffic, NATs the inner flow into the cloud (storing the client in
// the Known Flows table so responses return through the tunnel), relays to
// the service, and re-encapsulates responses back to the TM-Edge. Probes are
// answered immediately without touching the NAT.
#pragma once

#include <functional>
#include <string>

#include "netsim/nat.h"
#include "netsim/packet.h"
#include "netsim/sim.h"

namespace painter::tm {

class TmPop {
 public:
  struct Stats {
    std::size_t data_packets = 0;
    std::size_t probe_packets = 0;
    std::size_t nat_exhaustions = 0;
    std::size_t responses_sent = 0;
  };

  TmPop(netsim::Simulator& sim, std::string name,
        std::vector<netsim::IpAddr> addresses,
        double service_delay_s = 0.0005);

  // Handles a packet that arrived through a tunnel. `send_back` delivers a
  // response packet onto the reverse tunnel path (the caller models the
  // path); it is invoked when the TM-PoP emits the response.
  void HandleArrival(const netsim::Packet& packet,
                     std::function<void(netsim::Packet)> send_back);

  // Counts a probe that arrived through a tunnel. A probe is answered at
  // once, so the caller sends the reply itself; HandleArrival's probe path
  // is this plus the reply packet.
  void AnswerProbe() { ++stats_.probe_packets; }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] netsim::NatTable& nat() { return nat_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  netsim::Simulator* sim_;
  std::string name_;
  netsim::NatTable nat_;
  double service_delay_s_;
  Stats stats_;
};

}  // namespace painter::tm
