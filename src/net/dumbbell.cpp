#include "net/dumbbell.hpp"

#include <cassert>

#include "net/drr_queue.hpp"
#include <string>
#include <utility>

namespace rbs::net {

namespace {
constexpr std::int32_t kReferencePacketBytes = 1000;
}

Dumbbell::Dumbbell(sim::Simulation& sim, DumbbellConfig config)
    : sim_{sim}, config_{std::move(config)} {
  assert(config_.num_leaves >= 1);

  // Per-leaf sender-side access delays.
  if (!config_.access_delays.empty()) {
    assert(static_cast<int>(config_.access_delays.size()) == config_.num_leaves);
    leaf_delays_ = config_.access_delays;
  } else {
    leaf_delays_.reserve(static_cast<std::size_t>(config_.num_leaves));
    auto rng = sim_.rng().fork(/*stream=*/0x70706F6C);
    const auto lo = config_.access_delay_min.ps();
    const auto hi = config_.access_delay_max.ps();
    for (int i = 0; i < config_.num_leaves; ++i) {
      leaf_delays_.push_back(
          sim::SimTime::picoseconds(hi > lo ? rng.uniform_int(lo, hi) : lo));
    }
  }

  NodeId next_id = 0;
  left_router_ = std::make_unique<Router>(sim_, next_id++, "left_router");
  right_router_ = std::make_unique<Router>(sim_, next_id++, "right_router");

  for (int i = 0; i < config_.num_leaves; ++i) {
    senders_.push_back(
        std::make_unique<Host>(sim_, next_id++, "sender_" + std::to_string(i)));
    receivers_.push_back(
        std::make_unique<Host>(sim_, next_id++, "receiver_" + std::to_string(i)));
  }

  // Bottleneck pair. Forward carries data (congested); reverse carries ACKs
  // and is provisioned to never drop.
  {
    Link::Config cfg{config_.bottleneck_rate, config_.bottleneck_delay};
    auto queue = make_bottleneck_queue();
    links_.push_back(std::make_unique<Link>(sim_, "bottleneck_fwd", cfg, std::move(queue),
                                            *right_router_));
    forward_bottleneck_ = links_.back().get();
    reverse_bottleneck_ = &add_link("bottleneck_rev", cfg, *left_router_,
                                    config_.reverse_buffer_packets);
  }
  left_router_->set_default_route(*forward_bottleneck_);
  right_router_->set_default_route(*reverse_bottleneck_);

  // Access links, four per leaf (up/down on each side).
  for (int i = 0; i < config_.num_leaves; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Link::Config sender_cfg{config_.access_rate, leaf_delays_[idx]};
    const Link::Config receiver_cfg{config_.access_rate, config_.receiver_delay};

    Link& sender_up = add_link("acc_up_" + std::to_string(i), sender_cfg, *left_router_,
                               config_.uncongested_buffer_packets);
    Link& sender_down = add_link("acc_down_" + std::to_string(i), sender_cfg, *senders_[idx],
                                 config_.uncongested_buffer_packets);
    Link& receiver_up = add_link("rcv_up_" + std::to_string(i), receiver_cfg, *right_router_,
                                 config_.uncongested_buffer_packets);
    Link& receiver_down = add_link("rcv_down_" + std::to_string(i), receiver_cfg,
                                   *receivers_[idx], config_.uncongested_buffer_packets);

    senders_[idx]->attach_uplink(sender_up);
    receivers_[idx]->attach_uplink(receiver_up);
    left_router_->add_route(senders_[idx]->id(), sender_down);
    right_router_->add_route(receivers_[idx]->id(), receiver_down);
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
  links_.push_back(std::make_unique<Link>(sim_, std::move(name), cfg,
                                          std::make_unique<DropTailQueue>(buffer), dst));
  return *links_.back();
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
