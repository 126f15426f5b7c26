#include "net/node.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace rbs::net {

void Host::register_agent(FlowId flow, Agent& agent) {
  if (find_slot(flow) >= 0 || overflow_agents_.contains(flow)) {
    throw std::invalid_argument{"Host::register_agent: flow " + std::to_string(flow) +
                                " already has an agent on host " + name()};
  }
  if (slots_used_ < static_cast<int>(kInlineAgents)) {
    const auto i = static_cast<std::size_t>(slots_used_++);
    slot_flows_[i] = flow;
    slot_agents_[i] = &agent;
    return;
  }
  overflow_agents_.emplace(flow, &agent);
}

void Host::unregister_agent(FlowId flow) noexcept {
  if (const int i = find_slot(flow); i >= 0) {
    const auto last = static_cast<std::size_t>(--slots_used_);
    slot_flows_[static_cast<std::size_t>(i)] = slot_flows_[last];
    slot_agents_[static_cast<std::size_t>(i)] = slot_agents_[last];
  } else {
    overflow_agents_.erase(flow);
  }
}

void Host::send(const Packet& p) {
  assert(uplink_ != nullptr && "host has no uplink attached");
  uplink_->receive(p);
}

void Host::receive(const Packet& p) {
  if (const int i = find_slot(p.flow); i >= 0) {
    slot_agents_[static_cast<std::size_t>(i)]->on_packet(p);
    return;
  }
  if (const auto it = overflow_agents_.find(p.flow); it != overflow_agents_.end()) {
    it->second->on_packet(p);
    return;
  }
  ++unclaimed_;
}

void Router::add_route(NodeId dst, PacketSink& next_hop) {
  if (dst == kInvalidNode) throw std::invalid_argument{"Router::add_route: invalid destination"};
  if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1, nullptr);
  routes_[dst] = &next_hop;
}

void Router::receive(const Packet& p) {
  if (p.dst < routes_.size()) {
    if (PacketSink* next_hop = routes_[p.dst]; next_hop != nullptr) {
      next_hop->receive(p);
      return;
    }
  }
  if (default_route_ != nullptr) {
    default_route_->receive(p);
    return;
  }
  ++unroutable_;
}

}  // namespace rbs::net
