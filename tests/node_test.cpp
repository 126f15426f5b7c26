// Unit tests for Host agent dispatch and Router forwarding.
#include "net/node.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"

namespace rbs::net {
namespace {

class CountingAgent final : public Agent {
 public:
  void on_packet(const Packet& p) override { received.push_back(p.seq); }
  std::vector<std::int64_t> received;
};

class CountingSink final : public PacketSink {
 public:
  void receive(const Packet& p) override { received.push_back(p); }
  std::vector<Packet> received;
};

Packet make_packet(FlowId flow, NodeId dst, std::int64_t seq = 0) {
  Packet p;
  p.flow = flow;
  p.dst = dst;
  p.seq = seq;
  p.size_bytes = 100;
  return p;
}

TEST(Host, DispatchesByFlowId) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  CountingAgent a1, a2;
  host.register_agent(1, a1);
  host.register_agent(2, a2);

  host.receive(make_packet(1, 7, 10));
  host.receive(make_packet(2, 7, 20));
  host.receive(make_packet(1, 7, 11));

  EXPECT_EQ(a1.received, (std::vector<std::int64_t>{10, 11}));
  EXPECT_EQ(a2.received, (std::vector<std::int64_t>{20}));
  EXPECT_EQ(host.unclaimed_packets(), 0u);
}

TEST(Host, CountsUnclaimedPackets) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  host.receive(make_packet(99, 7));
  EXPECT_EQ(host.unclaimed_packets(), 1u);
}

TEST(Host, UnregisterStopsDispatch) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  CountingAgent a;
  host.register_agent(1, a);
  host.receive(make_packet(1, 7));
  host.unregister_agent(1);
  host.receive(make_packet(1, 7));
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(host.unclaimed_packets(), 1u);
}

TEST(Host, DispatchesAmongManyAgents) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  std::vector<CountingAgent> agents(64);
  for (FlowId f = 0; f < 64; ++f) host.register_agent(1000 + f, agents[f]);
  for (FlowId f = 64; f-- > 0;) host.receive(make_packet(1000 + f, 7, f));
  for (FlowId f = 0; f < 64; ++f) {
    EXPECT_EQ(agents[f].received, (std::vector<std::int64_t>{f})) << f;
  }
  // Removing agents from the middle leaves the rest reachable.
  for (FlowId f = 0; f < 64; f += 2) host.unregister_agent(1000 + f);
  for (FlowId f = 0; f < 64; ++f) host.receive(make_packet(1000 + f, 7, 100 + f));
  for (FlowId f = 0; f < 64; ++f) {
    EXPECT_EQ(agents[f].received.size(), f % 2 == 0 ? 1u : 2u) << f;
  }
  EXPECT_EQ(host.unclaimed_packets(), 32u);
}

TEST(Host, ReregisteringAFlowRoutesToTheNewAgent) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  CountingAgent first, second, other;
  host.register_agent(1, first);
  host.register_agent(2, other);
  host.unregister_agent(1);
  host.unregister_agent(1);  // a second removal is a no-op
  host.register_agent(1, second);
  EXPECT_THROW(host.register_agent(1, first), std::invalid_argument);
  host.receive(make_packet(1, 7, 5));
  host.receive(make_packet(2, 7, 6));
  EXPECT_TRUE(first.received.empty());
  EXPECT_EQ(second.received, (std::vector<std::int64_t>{5}));
  EXPECT_EQ(other.received, (std::vector<std::int64_t>{6}));
  EXPECT_EQ(host.unclaimed_packets(), 0u);
}

TEST(Host, SendGoesToUplink) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  CountingSink uplink;
  host.attach_uplink(uplink);
  host.send(make_packet(1, 9, 5));
  ASSERT_EQ(uplink.received.size(), 1u);
  EXPECT_EQ(uplink.received[0].seq, 5);
}

TEST(Router, RoutesByDestination) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port_a, port_b;
  router.add_route(10, port_a);
  router.add_route(20, port_b);

  router.receive(make_packet(1, 10));
  router.receive(make_packet(1, 20));
  router.receive(make_packet(1, 10));

  EXPECT_EQ(port_a.received.size(), 2u);
  EXPECT_EQ(port_b.received.size(), 1u);
}

TEST(Router, DefaultRouteCatchesUnknownDestinations) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port_a, fallback;
  router.add_route(10, port_a);
  router.set_default_route(fallback);

  router.receive(make_packet(1, 999));
  EXPECT_EQ(fallback.received.size(), 1u);
  EXPECT_EQ(router.unroutable_packets(), 0u);
}

TEST(Router, UnroutedIdsInsideAndPastTheTableTakeTheDefaultRoute) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port_a, fallback;
  router.add_route(10, port_a);
  router.set_default_route(fallback);
  router.receive(make_packet(1, 3));             // a hole below the routed id
  router.receive(make_packet(1, 11));            // just past the table
  router.receive(make_packet(1, kInvalidNode));  // never routable
  router.receive(make_packet(1, 10));
  EXPECT_EQ(port_a.received.size(), 1u);
  EXPECT_EQ(fallback.received.size(), 3u);
}

TEST(Router, RouteToTheInvalidNodeThrows) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port;
  EXPECT_THROW(router.add_route(kInvalidNode, port), std::invalid_argument);
  router.add_route(4, port);
  CountingSink replacement;
  router.add_route(4, replacement);  // a later route replaces the earlier one
  router.receive(make_packet(1, 4));
  EXPECT_TRUE(port.received.empty());
  EXPECT_EQ(replacement.received.size(), 1u);
}

TEST(Router, CountsUnroutableWithoutDefault) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  router.receive(make_packet(1, 999));
  EXPECT_EQ(router.unroutable_packets(), 1u);
}

TEST(Router, ExplicitRouteWinsOverDefault) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port_a, fallback;
  router.add_route(10, port_a);
  router.set_default_route(fallback);
  router.receive(make_packet(1, 10));
  EXPECT_EQ(port_a.received.size(), 1u);
  EXPECT_TRUE(fallback.received.empty());
}

}  // namespace
}  // namespace rbs::net
