// Unit tests for Host agent dispatch and Router forwarding.
#include "net/node.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
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

// Host keeps its first Host::kInlineAgents agents in inline slots and the
// rest in an overflow map; the tests below cover both states.
constexpr FlowId kMoreThanInline = static_cast<FlowId>(Host::kInlineAgents) + 6;

TEST(Host, AgentsPastTheInlineSlotsOverflowAndStillReceive) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  std::vector<CountingAgent> agents(kMoreThanInline);
  for (FlowId f = 0; f < kMoreThanInline; ++f) host.register_agent(500 + f, agents[f]);
  for (int round = 0; round < 2; ++round) {
    for (FlowId f = kMoreThanInline; f-- > 0;) host.receive(make_packet(500 + f, 7, f));
  }
  for (FlowId f = 0; f < kMoreThanInline; ++f) {
    EXPECT_EQ(agents[f].received, (std::vector<std::int64_t>{f, f})) << f;
  }
  EXPECT_EQ(host.unclaimed_packets(), 0u);
}

TEST(Host, DuplicateRegistrationThrowsForInlineAndOverflowAgents) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  std::vector<CountingAgent> agents(kMoreThanInline);
  for (FlowId f = 0; f < kMoreThanInline; ++f) host.register_agent(f, agents[f]);
  CountingAgent intruder;
  const FlowId inline_flow = 0;
  const FlowId overflow_flow = kMoreThanInline - 1;
  EXPECT_THROW(host.register_agent(inline_flow, intruder), std::invalid_argument);
  EXPECT_THROW(host.register_agent(overflow_flow, intruder), std::invalid_argument);
  // A failed registration leaves the first agent in place.
  host.receive(make_packet(inline_flow, 7, 1));
  host.receive(make_packet(overflow_flow, 7, 2));
  EXPECT_TRUE(intruder.received.empty());
  EXPECT_EQ(agents[inline_flow].received, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(agents[overflow_flow].received, (std::vector<std::int64_t>{2}));

  // With a slot freed, a flow still in the overflow map is still taken.
  host.unregister_agent(1);
  EXPECT_THROW(host.register_agent(overflow_flow, intruder), std::invalid_argument);
}

TEST(Host, UnregisterThenReregisterInlineAndOverflowAgents) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  std::vector<CountingAgent> agents(kMoreThanInline);
  for (FlowId f = 0; f < kMoreThanInline; ++f) host.register_agent(f, agents[f]);
  const FlowId inline_flow = 1;
  const FlowId overflow_flow = kMoreThanInline - 2;
  host.unregister_agent(inline_flow);
  host.unregister_agent(overflow_flow);
  host.receive(make_packet(inline_flow, 7, 1));
  host.receive(make_packet(overflow_flow, 7, 2));
  EXPECT_EQ(host.unclaimed_packets(), 2u);

  // Re-register in the opposite order: the overflow flow takes the freed
  // inline slot, the inline flow lands in the overflow map.
  CountingAgent new_overflow, new_inline;
  host.register_agent(overflow_flow, new_overflow);
  host.register_agent(inline_flow, new_inline);
  host.receive(make_packet(inline_flow, 7, 3));
  host.receive(make_packet(overflow_flow, 7, 4));
  EXPECT_EQ(new_inline.received, (std::vector<std::int64_t>{3}));
  EXPECT_EQ(new_overflow.received, (std::vector<std::int64_t>{4}));
  EXPECT_TRUE(agents[inline_flow].received.empty());
  EXPECT_TRUE(agents[overflow_flow].received.empty());
  EXPECT_EQ(host.unclaimed_packets(), 2u);
  // Every other agent is untouched and still reachable.
  for (FlowId f = 0; f < kMoreThanInline; ++f) {
    if (f == inline_flow || f == overflow_flow) continue;
    host.receive(make_packet(f, 7, 10 + f));
    EXPECT_EQ(agents[f].received, (std::vector<std::int64_t>{10 + f})) << f;
  }
}

TEST(Host, CountsUnclaimedPacketsWithAndWithoutOverflow) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  std::vector<CountingAgent> agents(kMoreThanInline);
  // Inline slots only.
  for (FlowId f = 0; f < Host::kInlineAgents; ++f) host.register_agent(f, agents[f]);
  host.receive(make_packet(1000, 7));
  host.receive(make_packet(0, 7));
  EXPECT_EQ(host.unclaimed_packets(), 1u);
  // Overflow in use.
  for (FlowId f = Host::kInlineAgents; f < kMoreThanInline; ++f) {
    host.register_agent(f, agents[f]);
  }
  host.receive(make_packet(1000, 7));
  host.receive(make_packet(kMoreThanInline - 1, 7));
  EXPECT_EQ(host.unclaimed_packets(), 2u);
  // Everything unregistered: every packet is unclaimed.
  for (FlowId f = 0; f < kMoreThanInline; ++f) host.unregister_agent(f);
  for (FlowId f = 0; f < kMoreThanInline; ++f) host.receive(make_packet(f, 7));
  EXPECT_EQ(host.unclaimed_packets(), 2u + kMoreThanInline);
  for (FlowId f = 0; f < kMoreThanInline; ++f) {
    const bool delivered = f == 0 || f == kMoreThanInline - 1;
    EXPECT_EQ(agents[f].received.size(), delivered ? 1u : 0u) << f;
  }
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

TEST(MakeName, JoinsPiecesAndDecimalIndices) {
  EXPECT_EQ(make_name("acc_up_", 7), "acc_up_7");
  EXPECT_EQ(make_name("receiver_", std::size_t{499}), "receiver_499");
  EXPECT_EQ(make_name("loc_snd_", 2, "_", 0, "_up"), "loc_snd_2_0_up");
  EXPECT_EQ(make_name(std::string{"e2e_rcv_12"}, "_down"), "e2e_rcv_12_down");
  EXPECT_EQ(make_name("x", -3), "x-3");
  EXPECT_EQ(make_name("n", std::uint64_t{18446744073709551615u}), "n18446744073709551615");
  EXPECT_EQ(make_name(std::string(64, 'a')), std::string(64, 'a'));
  EXPECT_THROW((void)make_name(std::string(64, 'a'), 1), std::length_error);
  EXPECT_THROW((void)make_name(std::string(65, 'a')), std::length_error);
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
