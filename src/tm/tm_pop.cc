#include "tm/tm_pop.h"

#include <utility>

namespace painter::tm {

TmPop::TmPop(netsim::Simulator& sim, std::string name,
             std::vector<netsim::IpAddr> addresses, double service_delay_s)
    : sim_(&sim),
      name_(std::move(name)),
      nat_(std::move(addresses)),
      service_delay_s_(service_delay_s) {}

void TmPop::HandleArrival(const netsim::Packet& packet,
                          std::function<void(netsim::Packet)> send_back) {
  if (packet.kind == netsim::PacketKind::kProbe) {
    AnswerProbe();
    netsim::Packet reply = packet;
    reply.kind = netsim::PacketKind::kProbeReply;
    reply.outer.reset();
    send_back(reply);
    return;
  }

  ++stats_.data_packets;
  // Decapsulate and NAT the inner flow so the service's response comes back
  // to this TM-PoP (not directly to the client).
  const auto binding = nat_.Bind(packet.inner);
  if (!binding.has_value()) {
    ++stats_.nat_exhaustions;
    return;  // drop: no NAT capacity
  }

  // Relay to the service and return the response after the intra-cloud
  // round trip. The response is looked up in the Known Flows table and
  // re-encapsulated toward the TM-Edge.
  netsim::Packet request = packet;
  request.outer.reset();
  sim_->Schedule(service_delay_s_, [this, request,
                                    send_back = std::move(send_back),
                                    b = *binding]() {
    const auto client = nat_.Lookup(b.nat_ip, b.nat_port);
    if (!client.has_value()) return;  // binding released mid-flight
    netsim::Packet response;
    response.kind = netsim::PacketKind::kData;
    response.inner = netsim::FlowKey{.src_ip = client->dst_ip,
                                     .dst_ip = client->src_ip,
                                     .src_port = client->dst_port,
                                     .dst_port = client->src_port,
                                     .proto = client->proto};
    response.payload_bytes = request.payload_bytes;
    response.sent_at = sim_->Now();
    ++stats_.responses_sent;
    send_back(response);
  });
}

}  // namespace painter::tm
