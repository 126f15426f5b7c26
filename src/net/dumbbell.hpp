// Dumbbell topology — the paper's experimental setup (Figure 1, generalized
// to many senders).
//
//   sender_0 ---access--- \                          / ---access--- receiver_0
//   sender_1 ---access--- left_router ==bottleneck== right_router --- receiver_1
//   ...                   /                          \ ...
//
// Each sender/receiver pair ("leaf") has its own access links with a
// per-leaf propagation delay, which spreads round-trip times and
// desynchronizes flows — the mechanism the paper relies on in §3. The
// bottleneck queue is the router buffer under study; every other queue is
// provisioned large enough never to drop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/object_block.hpp"
#include "core/units.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/red_queue.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {

enum class QueueDiscipline : std::uint8_t { kDropTail, kRed, kDrr };

struct DumbbellConfig {
  int num_leaves{1};

  core::BitsPerSec bottleneck_rate{core::BitsPerSec{155e6}};  ///< OC3 by default
  sim::SimTime bottleneck_delay{sim::SimTime::milliseconds(10)};  ///< one-way
  std::int64_t buffer_packets{100};       ///< the router buffer B under study

  core::BitsPerSec access_rate{core::BitsPerSec::gigabits(1)};  ///< per-leaf, both sides
  /// One-way access propagation delay range; each leaf draws uniformly from
  /// [min, max] unless `access_delays` supplies explicit values. Applied on
  /// the sender side only (receiver side uses `receiver_delay`), so
  /// RTT_i = 2*(access_delay_i + bottleneck_delay + receiver_delay).
  sim::SimTime access_delay_min{sim::SimTime::milliseconds(5)};
  sim::SimTime access_delay_max{sim::SimTime::milliseconds(35)};
  sim::SimTime receiver_delay{sim::SimTime::milliseconds(1)};
  std::vector<sim::SimTime> access_delays;  ///< optional explicit per-leaf delays

  QueueDiscipline discipline{QueueDiscipline::kDropTail};
  RedConfig red{};

  /// Buffering for uncongested links (access links); sized to never drop.
  std::int64_t uncongested_buffer_packets{1'000'000};

  /// Buffer of the reverse bottleneck direction. Defaults to "never drops";
  /// set a finite value to study two-way congestion (ACK compression).
  std::int64_t reverse_buffer_packets{1'000'000};
};

/// Builds and owns all nodes, links and queues of a dumbbell. Hosts, links
/// and access-link queues each live in one block sized from the config, so
/// their addresses are stable for the topology's life; they are destroyed
/// links first, then queues, hosts and routers (the reverse of
/// construction). The bottleneck's policy queue is owned by its link.
class Dumbbell {
 public:
  /// Throws std::invalid_argument for a config no topology can be built
  /// from: fewer than one leaf, `access_delays` neither empty nor one per
  /// leaf, an access delay range with min > max (when it is drawn from),
  /// or a link that net::Link rejects.
  Dumbbell(sim::Simulation& sim, DumbbellConfig config);

  [[nodiscard]] int num_leaves() const noexcept { return config_.num_leaves; }
  /// Leaf `i`'s hosts; throws std::out_of_range for a leaf that does not
  /// exist.
  [[nodiscard]] Host& sender(int i) { return hosts_.at(host_index(i)); }
  [[nodiscard]] Host& receiver(int i) { return hosts_.at(host_index(i) + 1); }

  /// The congested direction (left → right): its queue is the buffer under
  /// study.
  [[nodiscard]] Link& bottleneck() noexcept { return links_[0]; }
  [[nodiscard]] Link& reverse_bottleneck() noexcept { return links_[1]; }

  /// Two-way propagation delay (zero queueing) for leaf `i`.
  [[nodiscard]] sim::SimTime rtt(int i) const;

  /// Mean two-way propagation delay over all leaves.
  [[nodiscard]] sim::SimTime mean_rtt() const;

  /// Bandwidth-delay product of the bottleneck in packets of
  /// `packet_size`, using the mean propagation RTT — the paper's
  /// RTT × C.
  [[nodiscard]] double bdp_packets(core::Bytes packet_size) const;

  [[nodiscard]] const DumbbellConfig& config() const noexcept { return config_; }

  /// All links of the topology, in construction order ("bottleneck_fwd",
  /// "bottleneck_rev", then per-leaf "acc_up_<i>", "acc_down_<i>",
  /// "rcv_up_<i>", "rcv_down_<i>"). Fault injectors attach through this.
  [[nodiscard]] std::span<Link> links() noexcept { return {links_.begin(), links_.end()}; }

 private:
  /// Sender of leaf `i` (its receiver is next); a negative `i` maps past
  /// every host, so at() rejects it.
  [[nodiscard]] static std::size_t host_index(int i) noexcept {
    return 2 * static_cast<std::size_t>(i);
  }
  std::unique_ptr<Queue> make_bottleneck_queue();
  Link& add_link(std::string name, Link::Config cfg, PacketSink& dst, std::int64_t buffer);

  sim::Simulation& sim_;
  DumbbellConfig config_;
  std::vector<sim::SimTime> leaf_delays_;

  // Declared in construction order, so they are destroyed in reverse: a
  // link goes before the queue it borrows and the node it delivers to.
  Router left_router_;
  Router right_router_;
  core::ObjectBlock<Host> hosts_;            ///< leaf i: sender at 2i, receiver at 2i + 1
  core::ObjectBlock<DropTailQueue> queues_;  ///< reverse bottleneck's, then four per leaf
  core::ObjectBlock<Link> links_;            ///< in links() order
};

}  // namespace rbs::net
