// Nodes: hosts (which run protocol agents) and routers (which forward).
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {

/// Concatenates string pieces and decimal integers into one name, such as
/// "acc_up_7" or "loc_snd_2_0_up". The pieces are formatted into a stack
/// buffer first, so the string is built once, and a name that fits the
/// small-string buffer costs no allocation. Throws std::length_error past
/// 64 characters.
template <typename... Parts>
[[nodiscard]] std::string make_name(const Parts&... parts) {
  std::array<char, 64> buf;
  char* out = buf.data();
  char* const end = buf.data() + buf.size();
  const auto put = [&](const auto& part) {
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(part)>>) {
      const auto [next, ec] = std::to_chars(out, end, part);
      if (ec != std::errc{}) throw std::length_error{"make_name: name too long"};
      out = next;
    } else {
      const std::string_view piece{part};
      if (piece.size() > static_cast<std::size_t>(end - out)) {
        throw std::length_error{"make_name: name too long"};
      }
      std::memcpy(out, piece.data(), piece.size());
      out += piece.size();
    }
  };
  (put(parts), ...);
  return std::string(buf.data(), out);
}

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
///
/// The first kInlineAgents registrations live in inline (flow, agent) slots
/// that a delivery scans before anything else, so a host with a few flows
/// registers, finds and removes them without hashing or allocating. Further
/// agents overflow into a hash map (a trace replay on one leaf puts
/// thousands of flows on one host), which allocates nothing until used.
class Host final : public Node {
 public:
  /// Inline agent slots per host.
  static constexpr std::size_t kInlineAgents = 4;

  using Node::Node;

  /// Sets where outgoing packets go (the host's access link). Must be called
  /// before any agent sends.
  void attach_uplink(PacketSink& uplink) noexcept { uplink_ = &uplink; }

  /// Registers `agent` to receive packets of `flow`, in a free inline slot
  /// if there is one and in the overflow map otherwise. One agent per flow:
  /// throws std::invalid_argument if `flow` already has one.
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
  /// Index of the inline slot holding `flow`, or -1.
  [[nodiscard]] int find_slot(FlowId flow) const noexcept {
    for (int i = 0; i < slots_used_; ++i) {
      if (slot_flows_[static_cast<std::size_t>(i)] == flow) return i;
    }
    return -1;
  }

  PacketSink* uplink_{nullptr};
  // The first slots_used_ inline slots hold (slot_flows_[i], slot_agents_[i]);
  // unregistering moves the last one into the hole.
  std::array<FlowId, kInlineAgents> slot_flows_{};
  std::array<Agent*, kInlineAgents> slot_agents_{};
  int slots_used_{0};
  // rbs-analyze: allow(R2) -- emplace/find/erase only (node.cpp); never iterated
  std::unordered_map<FlowId, Agent*> overflow_agents_;
  std::uint64_t unclaimed_{0};
};

/// An output-queued router: looks up the destination and forwards to the
/// corresponding next hop. Forwarding itself is instantaneous; all queueing
/// happens in the outgoing Link.
class Router final : public Node {
 public:
  using Node::Node;

  /// Routes packets destined to `dst` via `next_hop`. The table is a
  /// vector indexed by destination, sized by the largest routed id: node
  /// ids are dense per topology. Throws std::invalid_argument for
  /// kInvalidNode.
  void add_route(NodeId dst, PacketSink& next_hop);

  /// Sizes the table for destinations below `num_nodes` in one allocation,
  /// so a topology that knows its node count routes without regrowing it.
  void size_table(std::size_t num_nodes) { routes_.resize(num_nodes, nullptr); }

  /// Fallback next hop for destinations with no explicit route.
  void set_default_route(PacketSink& next_hop) noexcept { default_route_ = &next_hop; }

  void receive(const Packet& p) override;

  /// Packets discarded because no route matched.
  [[nodiscard]] std::uint64_t unroutable_packets() const noexcept { return unroutable_; }

 private:
  std::vector<PacketSink*> routes_;  // index = destination; null = no route
  PacketSink* default_route_{nullptr};
  std::uint64_t unroutable_{0};
};

}  // namespace rbs::net
