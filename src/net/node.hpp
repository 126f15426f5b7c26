// Nodes: hosts (which run protocol agents) and routers (which forward).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {

/// Common base for hosts and routers.
class Node : public PacketSink {
 public:
  Node(sim::Simulation& sim, NodeId id, std::string name)
      : sim_{sim}, id_{id}, name_{std::move(name)} {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }

 protected:
  sim::Simulation& sim_;

 private:
  NodeId id_;
  std::string name_;
};

/// A protocol endpoint living on a Host (TCP source, TCP sink, UDP source...).
/// Agents are owned by workloads/experiments, not by the host.
class Agent {
 public:
  virtual ~Agent() = default;

  /// Called for every packet addressed to this agent's flow.
  virtual void on_packet(const Packet& p) = 0;
};

/// An end host: dispatches incoming packets to agents by flow id and sends
/// outgoing packets on its uplink.
class Host final : public Node {
 public:
  using Node::Node;

  /// Sets where outgoing packets go (the host's access link). Must be called
  /// before any agent sends.
  void attach_uplink(PacketSink& uplink) noexcept { uplink_ = &uplink; }

  /// Registers `agent` to receive packets of `flow`. One agent per flow.
  void register_agent(FlowId flow, Agent& agent);

  /// Removes the registration; packets for `flow` are then counted as
  /// unclaimed and discarded.
  void unregister_agent(FlowId flow) noexcept;

  /// Transmits `p` on the uplink.
  void send(const Packet& p);

  void receive(const Packet& p) override;

  /// Packets that arrived for a flow with no registered agent (e.g. data in
  /// flight when a flow is torn down).
  [[nodiscard]] std::uint64_t unclaimed_packets() const noexcept { return unclaimed_; }

 private:
  PacketSink* uplink_{nullptr};
  // rbs-analyze: allow(R2) -- emplace/find/erase only (node.cpp); never iterated
  std::unordered_map<FlowId, Agent*> agents_;
  std::uint64_t unclaimed_{0};
};

/// An output-queued router: looks up the destination and forwards to the
/// corresponding next hop. Forwarding itself is instantaneous; all queueing
/// happens in the outgoing Link.
class Router final : public Node {
 public:
  using Node::Node;

  /// Routes packets destined to `dst` via `next_hop`.
  void add_route(NodeId dst, PacketSink& next_hop);

  /// Fallback next hop for destinations with no explicit route.
  void set_default_route(PacketSink& next_hop) noexcept { default_route_ = &next_hop; }

  void receive(const Packet& p) override;

  /// Packets discarded because no route matched.
  [[nodiscard]] std::uint64_t unroutable_packets() const noexcept { return unroutable_; }

 private:
  // rbs-analyze: allow(R2) -- keyed insert/find only (node.cpp); never iterated
  std::unordered_map<NodeId, PacketSink*> routes_;
  PacketSink* default_route_{nullptr};
  std::uint64_t unroutable_{0};
};

}  // namespace rbs::net
