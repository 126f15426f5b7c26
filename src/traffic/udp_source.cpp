#include "traffic/udp_source.hpp"

#include <cmath>
#include <stdexcept>

namespace rbs::traffic {

namespace {
constexpr std::uint64_t kRngStream = 0x0DB5;  ///< xor-ed with the flow id

double mean_gap_seconds(const UdpSourceConfig& config) {
  return 8.0 * static_cast<double>(config.packet_size.count()) / config.rate.bps();
}

const UdpSourceConfig& checked(const UdpSourceConfig& config) {
  const double rate = config.rate.bps();
  if (!(rate > 0) || !std::isfinite(rate)) {
    throw std::invalid_argument{"UdpSource: rate must be positive and finite"};
  }
  if (config.packet_size.count() <= 0) {
    throw std::invalid_argument{"UdpSource: packet size must be positive"};
  }
  if (sim::SimTime::from_seconds(mean_gap_seconds(config)) <= sim::SimTime::zero()) {
    throw std::invalid_argument{"UdpSource: rate too high, packet gap under one picosecond"};
  }
  return config;
}

}  // namespace

UdpSource::UdpSource(sim::Simulation& sim, net::Host& host, net::NodeId dst, net::FlowId flow,
                     UdpSourceConfig config)
    : sim_{sim},
      host_{host},
      dst_{dst},
      flow_{flow},
      config_{checked(config)},
      rng_{sim.rng().fork(kRngStream ^ flow)} {
  host_.register_agent(flow_, *this);
}

UdpSource::~UdpSource() {
  stop();
  host_.unregister_agent(flow_);
}

void UdpSource::start(sim::SimTime at) {
  next_send_ = sim_.at(at, [this] { send_one(); }, sim::EventClass::kWorkload);
}

sim::SimTime UdpSource::next_gap() {
  const double mean_gap_sec = mean_gap_seconds(config_);
  if (config_.poisson_gaps) {
    return sim::SimTime::from_seconds(rng_.exponential(mean_gap_sec));
  }
  return sim::SimTime::from_seconds(mean_gap_sec);
}

void UdpSource::send_one() {
  net::Packet p;
  p.flow = flow_;
  p.kind = net::PacketKind::kUdp;
  p.src = host_.id();
  p.dst = dst_;
  p.seq = next_seq_++;
  p.size_bytes = static_cast<std::int32_t>(config_.packet_size.count());
  p.timestamp = sim_.now();
  host_.send(p);
  ++packets_sent_;
  next_send_ = sim_.after(next_gap(), [this] { send_one(); }, sim::EventClass::kWorkload);
}

UdpSink::UdpSink(net::Host& host, net::FlowId flow) : host_{host}, flow_{flow} {
  host_.register_agent(flow_, *this);
}

UdpSink::~UdpSink() { host_.unregister_agent(flow_); }

void UdpSink::on_packet(const net::Packet& p) {
  if (p.kind == net::PacketKind::kUdp) ++packets_received_;
}

}  // namespace rbs::traffic
