// Packet and addressing types shared by the whole network substrate.
//
// Packets are small value types carrying metadata only — payload bytes are
// never materialized. A data packet's `seq` counts whole packets (MSS units),
// matching the paper's presentation of TCP windows in packets.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace rbs::net {

/// Identifies a node (host or router) within one topology.
using NodeId = std::uint32_t;

/// Identifies a flow (one TCP connection or one UDP stream) within one
/// simulation.
using FlowId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// The largest packet a link carries or a TCP segment may be: a maximum-size
/// IPv4 packet.
inline constexpr std::int32_t kMaxPacketBytes = 65'535;

enum class PacketKind : std::uint8_t {
  kTcpData,  ///< TCP segment carrying MSS bytes of payload
  kTcpAck,   ///< pure cumulative acknowledgment
  kUdp,      ///< non-reactive datagram (CBR and friends)
};

/// One simulated packet. Copied freely; fits in a couple of cache lines.
struct Packet {
  FlowId flow{0};
  PacketKind kind{PacketKind::kTcpData};
  NodeId src{kInvalidNode};
  NodeId dst{kInvalidNode};

  /// Data: sequence number of this segment, in packets (0-based).
  /// ACK: unused.
  std::int64_t seq{0};

  /// ACK: cumulative acknowledgment — the lowest sequence number the
  /// receiver has NOT yet received. Data: unused.
  std::int64_t ack{0};

  /// Wire size in bytes (headers included). Determines serialization time.
  std::int32_t size_bytes{0};

  /// Timestamp set by the sender when this packet (or, for an ACK, the data
  /// packet being acknowledged) was transmitted. Echoed by the receiver so
  /// the sender can take Karn-safe RTT samples.
  sim::SimTime timestamp{};

  /// True if this data packet is a retransmission (diagnostics only).
  bool retransmit{false};

  /// ECN Congestion Experienced: set by an AQM queue instead of dropping
  /// (data packets), and echoed by the receiver on ACKs (ECN-Echo).
  bool ecn_ce{false};

  /// ACK only: number of CE-marked data packets the receiver saw since its
  /// previous ACK (0 with no marks; equals 0/1 for immediate ACKs, may
  /// exceed 1 under delayed ACKs). Carries the exact marked fraction DCTCP
  /// needs; `ecn_ce` above stays the boolean echo every flavor understands.
  std::int32_t ecn_echo_count{0};

  /// Set by a Link when the packet is offered to it; used to measure the
  /// queueing (+ serialization) delay at that hop. Links overwrite it hop by
  /// hop, so it is only meaningful within one hop.
  sim::SimTime hop_arrival{};
};

/// Anything that can accept a packet: hosts, routers, links.
class PacketSink {
 public:
  virtual ~PacketSink() = default;

  /// Delivers `p` to this component at the current simulation time.
  virtual void receive(const Packet& p) = 0;
};

}  // namespace rbs::net
