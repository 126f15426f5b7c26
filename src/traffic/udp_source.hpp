// Non-reactive (UDP) traffic sources (§4: "the methodology ... can also be
// used for UDP flows and other traffic that does not react to congestion").
//
// CBR sends at a constant rate; Poisson mode randomizes packet gaps
// (exponential) at the same average rate — the "smoothed" arrival process
// of the paper's M/D/1 remark.
#pragma once

#include <cstdint>

#include "core/units.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace rbs::traffic {

struct UdpSourceConfig {
  core::BitsPerSec rate{core::BitsPerSec{1e6}};
  core::Bytes packet_size{core::Bytes{1000}};
  bool poisson_gaps{false};  ///< true → exponential inter-packet gaps
};

/// Sends a stream of datagrams from a host to a destination node.
class UdpSource final : public net::Agent {
 public:
  /// Throws std::invalid_argument unless the rate and packet size are
  /// positive and finite and the mean gap between packets is at least one
  /// picosecond (a shorter gap would send forever at one instant).
  UdpSource(sim::Simulation& sim, net::Host& host, net::NodeId dst, net::FlowId flow,
            UdpSourceConfig config);
  ~UdpSource() override;

  UdpSource(const UdpSource&) = delete;
  UdpSource& operator=(const UdpSource&) = delete;

  /// Starts sending at absolute time `at`; runs until stop() or destruction.
  void start(sim::SimTime at);
  void stop() noexcept { next_send_.cancel(); }

  void on_packet(const net::Packet&) override {}  // UDP ignores feedback

  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return packets_sent_; }

 private:
  void send_one();
  [[nodiscard]] sim::SimTime next_gap();

  sim::Simulation& sim_;
  net::Host& host_;
  net::NodeId dst_;
  net::FlowId flow_;
  UdpSourceConfig config_;
  sim::Rng rng_;
  std::uint64_t packets_sent_{0};
  std::int64_t next_seq_{0};
  sim::Scheduler::EventHandle next_send_;
};

/// Counts datagrams of one UDP flow at the receiver.
class UdpSink final : public net::Agent {
 public:
  UdpSink(net::Host& host, net::FlowId flow);
  ~UdpSink() override;

  UdpSink(const UdpSink&) = delete;
  UdpSink& operator=(const UdpSink&) = delete;

  void on_packet(const net::Packet& p) override;

  [[nodiscard]] std::uint64_t packets_received() const noexcept { return packets_received_; }

 private:
  net::Host& host_;
  net::FlowId flow_;
  std::uint64_t packets_received_{0};
};

}  // namespace rbs::traffic
