#include "net/parking_lot.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace rbs::net {

namespace {

/// `config`, once checked to describe a buildable parking lot.
ParkingLotConfig validated(ParkingLotConfig config) {
  if (config.num_segments < 1) {
    throw std::invalid_argument("parking lot: num_segments must be >= 1, got " +
                                std::to_string(config.num_segments));
  }
  if (config.num_e2e_leaves < 0 || config.num_local_leaves_per_segment < 0) {
    throw std::invalid_argument("parking lot: leaf counts must be >= 0");
  }
  if (config.access_delay_min > config.access_delay_max) {
    throw std::invalid_argument("parking lot: access_delay_min exceeds access_delay_max");
  }
  return config;
}

std::size_t num_hosts(const ParkingLotConfig& c) {
  return 2 * (static_cast<std::size_t>(c.num_e2e_leaves) +
              static_cast<std::size_t>(c.num_segments) *
                  static_cast<std::size_t>(c.num_local_leaves_per_segment));
}

/// Two per segment, plus an up and a down access link per host.
std::size_t num_links(const ParkingLotConfig& c) {
  return 2 * static_cast<std::size_t>(c.num_segments) + 2 * num_hosts(c);
}

}  // namespace

ParkingLot::ParkingLot(sim::Simulation& sim, ParkingLotConfig config)
    : sim_{sim},
      config_{validated(std::move(config))},
      routers_{static_cast<std::size_t>(config_.num_segments) + 1},
      hosts_{num_hosts(config_)},
      queues_{num_links(config_)},
      links_{num_links(config_)} {
  auto rng = sim_.rng().fork(/*stream=*/0x9A121'07);
  const auto draw_delay = [&rng, this] {
    const auto lo = config_.access_delay_min.ps();
    const auto hi = config_.access_delay_max.ps();
    return sim::SimTime::picoseconds(hi > lo ? rng.uniform_int(lo, hi) : lo);
  };

  NodeId next_id = 0;
  for (int r = 0; r <= config_.num_segments; ++r) {
    routers_.emplace_back(sim_, next_id++, make_name("router_", r));
  }
  for (Router& router : routers_) router.size_table(routers_.size() + hosts_.capacity());

  // Segment links (both directions). Forward carries the studied traffic and
  // gets the configured buffer; reverse is provisioned to never drop.
  const Link::Config seg_cfg{config_.segment_rate, config_.segment_delay};
  for (std::size_t s = 0; s < routers_.size() - 1; ++s) {
    add_link(make_name("seg_fwd_", s), seg_cfg, routers_[s + 1], config_.buffer_packets);
    add_link(make_name("seg_rev_", s), seg_cfg, routers_[s],
             config_.uncongested_buffer_packets);
  }

  // End-to-end leaves: senders at router 0, receivers at the last router.
  e2e_delays_.reserve(static_cast<std::size_t>(config_.num_e2e_leaves));
  for (int i = 0; i < config_.num_e2e_leaves; ++i) {
    const auto delay = draw_delay();
    e2e_delays_.push_back(delay);
    add_host(make_name("e2e_snd_", i), 0, delay);
    add_host(make_name("e2e_rcv_", i), config_.num_segments,
             sim::SimTime::milliseconds(1));
  }

  // Local leaves for segment s: sender at router s, receiver at router s+1.
  for (int s = 0; s < config_.num_segments; ++s) {
    for (int i = 0; i < config_.num_local_leaves_per_segment; ++i) {
      add_host(make_name("loc_snd_", s, "_", i), s, draw_delay());
      add_host(make_name("loc_rcv_", s, "_", i), s + 1, sim::SimTime::milliseconds(1));
    }
  }
}

Link& ParkingLot::add_link(std::string name, Link::Config cfg, PacketSink& dst,
                           std::int64_t buffer) {
  return links_.emplace_back(sim_, std::move(name), cfg, queues_.emplace_back(buffer), dst);
}

void ParkingLot::add_host(const std::string& name, int attach, sim::SimTime delay) {
  const auto at = static_cast<std::size_t>(attach);
  Host& host = hosts_.emplace_back(sim_, static_cast<NodeId>(routers_.size() + hosts_.size()),
                                   name);
  const Link::Config acc_cfg{config_.access_rate, delay};
  const std::int64_t buffer = config_.uncongested_buffer_packets;
  Link& up = add_link(make_name(name, "_up"), acc_cfg, routers_[at], buffer);
  Link& down = add_link(make_name(name, "_down"), acc_cfg, host, buffer);
  host.attach_uplink(up);
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    if (r == at) {
      routers_[r].add_route(host.id(), down);
    } else if (r < at) {
      routers_[r].add_route(host.id(), forward_segment(r));
    } else {
      routers_[r].add_route(host.id(), reverse_segment(r - 1));
    }
  }
}

std::size_t ParkingLot::e2e_index(int i) const {
  if (i < 0 || i >= config_.num_e2e_leaves) {
    throw std::out_of_range("parking lot: no end-to-end leaf " + std::to_string(i));
  }
  return static_cast<std::size_t>(i);
}

std::size_t ParkingLot::local_index(int segment, int i) const {
  if (segment < 0 || segment >= config_.num_segments || i < 0 ||
      i >= config_.num_local_leaves_per_segment) {
    throw std::out_of_range("parking lot: no local leaf " + std::to_string(i) + " on segment " +
                            std::to_string(segment));
  }
  return static_cast<std::size_t>(config_.num_e2e_leaves) +
         static_cast<std::size_t>(segment * config_.num_local_leaves_per_segment + i);
}

std::size_t ParkingLot::segment_index(int s) const {
  if (s < 0 || s >= config_.num_segments) {
    throw std::out_of_range("parking lot: no segment " + std::to_string(s));
  }
  return static_cast<std::size_t>(s);
}

sim::SimTime ParkingLot::e2e_rtt(int i) const {
  const auto one_way = e2e_delays_.at(static_cast<std::size_t>(i)) +
                       config_.num_segments * config_.segment_delay +
                       sim::SimTime::milliseconds(1);
  return 2 * one_way;
}

}  // namespace rbs::net
