// Packets and flow identification.
//
// The Traffic Manager's tunneling mechanism (Appendix D) works on 5-tuples:
// the TM-Edge encapsulates client packets in UDP datagrams addressed to an
// ingress prefix; the TM-PoP decapsulates, NATs the inner flow (storing the
// client's address and port in a Known Flows table), and relays to the
// service. A Packet here carries the inner client 5-tuple and, while inside
// a tunnel, the outer UDP 5-tuple.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>

#include "util/hashmix.h"

namespace painter::netsim {

using IpAddr = std::uint32_t;  // IPv4 address as an integer
using Port = std::uint16_t;

struct FlowKey {
  IpAddr src_ip = 0;
  IpAddr dst_ip = 0;
  Port src_port = 0;
  Port dst_port = 0;
  std::uint8_t proto = 6;  // TCP by default

  friend constexpr auto operator<=>(const FlowKey&, const FlowKey&) = default;
};

// Full-width 64-bit fingerprint of a flow key. The flow-pinning table
// (workload/flow_store.h) starts its linear probe at the low bits, so the
// mix quality matters more than for std::hash (which feeds bucketed
// unordered_maps and is left untouched to preserve their iteration orders).
[[nodiscard]] constexpr std::uint64_t FlowKeyFingerprint(const FlowKey& k) {
  const std::uint64_t addrs =
      (static_cast<std::uint64_t>(k.src_ip) << 32) | k.dst_ip;
  const std::uint64_t rest = (static_cast<std::uint64_t>(k.src_port) << 32) |
                             (static_cast<std::uint64_t>(k.dst_port) << 8) |
                             k.proto;
  return util::MixSeed(addrs, rest);
}

enum class PacketKind : std::uint8_t {
  kData,
  kProbe,      // TM path measurement request
  kProbeReply,
};

struct Packet {
  PacketKind kind = PacketKind::kData;
  FlowKey inner;                  // client 5-tuple (or probe endpoints)
  std::optional<FlowKey> outer;   // UDP encapsulation while tunneled
  std::uint32_t payload_bytes = 0;
  std::uint64_t probe_id = 0;     // for kProbe/kProbeReply matching
  double sent_at = 0.0;           // stamped by the sender

  // Appendix D: the UDP encapsulation adds ~16 bytes per packet.
  static constexpr std::uint32_t kEncapOverheadBytes = 16;

  [[nodiscard]] std::uint32_t WireBytes() const {
    return payload_bytes + (outer.has_value() ? kEncapOverheadBytes : 0);
  }
};

}  // namespace painter::netsim

namespace std {
template <>
struct hash<painter::netsim::FlowKey> {
  size_t operator()(const painter::netsim::FlowKey& k) const noexcept {
    std::uint64_t a = (static_cast<std::uint64_t>(k.src_ip) << 32) | k.dst_ip;
    std::uint64_t b = (static_cast<std::uint64_t>(k.src_port) << 24) |
                      (static_cast<std::uint64_t>(k.dst_port) << 8) | k.proto;
    a ^= b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2);
    return static_cast<size_t>(a);
  }
};
}  // namespace std
