#include "net/dumbbell.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "net/drr_queue.hpp"

namespace rbs::net {

namespace {

constexpr std::int32_t kReferencePacketBytes = 1000;

/// `config`, once checked to describe a buildable dumbbell.
DumbbellConfig validated(DumbbellConfig config) {
  if (config.num_leaves < 1) {
    throw std::invalid_argument("dumbbell: num_leaves must be >= 1, got " +
                                std::to_string(config.num_leaves));
  }
  if (!config.access_delays.empty() &&
      config.access_delays.size() != static_cast<std::size_t>(config.num_leaves)) {
    throw std::invalid_argument("dumbbell: access_delays has " +
                                std::to_string(config.access_delays.size()) +
                                " entries for " + std::to_string(config.num_leaves) + " leaves");
  }
  if (config.access_delays.empty() && config.access_delay_min > config.access_delay_max) {
    throw std::invalid_argument("dumbbell: access_delay_min exceeds access_delay_max");
  }
  return config;
}

}  // namespace

Dumbbell::Dumbbell(sim::Simulation& sim, DumbbellConfig config)
    : sim_{sim},
      config_{validated(std::move(config))},
      left_router_{sim_, 0, "left_router"},
      right_router_{sim_, 1, "right_router"},
      hosts_{2 * static_cast<std::size_t>(config_.num_leaves)},
      queues_{1 + 4 * static_cast<std::size_t>(config_.num_leaves)},
      links_{2 + 4 * static_cast<std::size_t>(config_.num_leaves)} {
  const auto leaves = static_cast<std::size_t>(config_.num_leaves);

  // Per-leaf sender-side access delays.
  if (!config_.access_delays.empty()) {
    leaf_delays_ = config_.access_delays;
  } else {
    leaf_delays_.reserve(leaves);
    auto rng = sim_.rng().fork(/*stream=*/0x70706F6C);
    const auto lo = config_.access_delay_min.ps();
    const auto hi = config_.access_delay_max.ps();
    for (std::size_t i = 0; i < leaves; ++i) {
      leaf_delays_.push_back(
          sim::SimTime::picoseconds(hi > lo ? rng.uniform_int(lo, hi) : lo));
    }
  }

  NodeId next_id = 2;  // after the two routers
  for (std::size_t i = 0; i < leaves; ++i) {
    hosts_.emplace_back(sim_, next_id++, make_name("sender_", i));
    hosts_.emplace_back(sim_, next_id++, make_name("receiver_", i));
  }
  left_router_.size_table(next_id);
  right_router_.size_table(next_id);

  // Bottleneck pair. Forward carries data (congested); reverse carries ACKs
  // and is provisioned to never drop.
  const Link::Config bottleneck_cfg{config_.bottleneck_rate, config_.bottleneck_delay};
  links_.emplace_back(sim_, "bottleneck_fwd", bottleneck_cfg, make_bottleneck_queue(),
                      right_router_);
  add_link("bottleneck_rev", bottleneck_cfg, left_router_, config_.reverse_buffer_packets);
  left_router_.set_default_route(bottleneck());
  right_router_.set_default_route(reverse_bottleneck());

  // Access links, four per leaf (up/down on each side).
  for (std::size_t i = 0; i < leaves; ++i) {
    Host& snd = hosts_[2 * i];
    Host& rcv = hosts_[2 * i + 1];
    const Link::Config sender_cfg{config_.access_rate, leaf_delays_[i]};
    const Link::Config receiver_cfg{config_.access_rate, config_.receiver_delay};
    const std::int64_t buffer = config_.uncongested_buffer_packets;

    Link& sender_up = add_link(make_name("acc_up_", i), sender_cfg, left_router_, buffer);
    Link& sender_down = add_link(make_name("acc_down_", i), sender_cfg, snd, buffer);
    Link& receiver_up = add_link(make_name("rcv_up_", i), receiver_cfg, right_router_, buffer);
    Link& receiver_down = add_link(make_name("rcv_down_", i), receiver_cfg, rcv, buffer);

    snd.attach_uplink(sender_up);
    rcv.attach_uplink(receiver_up);
    left_router_.add_route(snd.id(), sender_down);
    right_router_.add_route(rcv.id(), receiver_down);
  }
}

std::unique_ptr<Queue> Dumbbell::make_bottleneck_queue() {
  if (config_.discipline == QueueDiscipline::kDrr) {
    return std::make_unique<DrrQueue>(config_.buffer_packets,
                                      /*quantum=*/core::Bytes{kReferencePacketBytes});
  }
  if (config_.discipline == QueueDiscipline::kRed) {
    RedConfig red = config_.red;
    if (red.mean_packet_time_sec <= 0) {
      red.mean_packet_time_sec =
          static_cast<double>(kReferencePacketBytes) * 8.0 / config_.bottleneck_rate.bps();
    }
    return std::make_unique<RedQueue>(sim_, config_.buffer_packets, red);
  }
  return std::make_unique<DropTailQueue>(config_.buffer_packets);
}

Link& Dumbbell::add_link(std::string name, Link::Config cfg, PacketSink& dst,
                         std::int64_t buffer) {
  return links_.emplace_back(sim_, std::move(name), cfg, queues_.emplace_back(buffer), dst);
}

sim::SimTime Dumbbell::rtt(int i) const {
  const auto one_way = leaf_delays_.at(static_cast<std::size_t>(i)) +
                       config_.bottleneck_delay + config_.receiver_delay;
  return 2 * one_way;
}

sim::SimTime Dumbbell::mean_rtt() const {
  std::int64_t total_ps = 0;
  for (int i = 0; i < config_.num_leaves; ++i) total_ps += rtt(i).ps();
  return sim::SimTime::picoseconds(total_ps / config_.num_leaves);
}

double Dumbbell::bdp_packets(core::Bytes packet_size) const {
  const double rtt_sec = mean_rtt().to_seconds();
  return rtt_sec * config_.bottleneck_rate.bps() / static_cast<double>(packet_size.bits());
}

}  // namespace rbs::net
