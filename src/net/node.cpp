#include "net/node.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace rbs::net {

void Host::register_agent(FlowId flow, Agent& agent) {
  if (!agents_.emplace(flow, &agent).second) {
    throw std::invalid_argument{"Host::register_agent: flow " + std::to_string(flow) +
                                " already has an agent on host " + name()};
  }
}

void Host::unregister_agent(FlowId flow) noexcept { agents_.erase(flow); }

void Host::send(const Packet& p) {
  assert(uplink_ != nullptr && "host has no uplink attached");
  uplink_->receive(p);
}

void Host::receive(const Packet& p) {
  const auto it = agents_.find(p.flow);
  if (it == agents_.end()) {
    ++unclaimed_;
    return;
  }
  it->second->on_packet(p);
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
