// Parking-lot topology: a chain of potentially congested segments.
//
//                seg0          seg1          seg2
//   [e2e senders]──R0══════════R1══════════R2══════════R3──[e2e receivers]
//                   \          /\           /\          /
//              local(0) leaves   local(1)      local(2)
//
// End-to-end flows traverse every segment; each segment also carries local
// cross-traffic that enters just before it and leaves just after it. The
// paper assumes a single point of congestion (§5.1); this topology exists to
// test what happens when that assumption is broken.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/object_block.hpp"
#include "core/units.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {

struct ParkingLotConfig {
  int num_segments{3};
  core::BitsPerSec segment_rate{core::BitsPerSec{50e6}};
  sim::SimTime segment_delay{sim::SimTime::milliseconds(5)};  ///< one-way
  std::int64_t buffer_packets{100};  ///< per congested segment queue

  int num_e2e_leaves{10};
  int num_local_leaves_per_segment{10};

  core::BitsPerSec access_rate{core::BitsPerSec::gigabits(1)};
  sim::SimTime access_delay_min{sim::SimTime::milliseconds(2)};
  sim::SimTime access_delay_max{sim::SimTime::milliseconds(20)};

  std::int64_t uncongested_buffer_packets{1'000'000};
};

/// Builds and owns the chain, the leaves, and full routing tables. Routers,
/// hosts, queues and links each live in one block sized from the config,
/// as in Dumbbell, and are destroyed in reverse construction order.
class ParkingLot {
 public:
  /// Throws std::invalid_argument for fewer than one segment, a negative
  /// leaf count, or an access delay range with min > max.
  ParkingLot(sim::Simulation& sim, ParkingLotConfig config);

  [[nodiscard]] int num_segments() const noexcept { return config_.num_segments; }
  [[nodiscard]] int num_e2e_leaves() const noexcept { return config_.num_e2e_leaves; }
  [[nodiscard]] int num_local_leaves(int segment) const noexcept {
    (void)segment;
    return config_.num_local_leaves_per_segment;
  }

  // Hosts and segments; each throws std::out_of_range for an index that
  // does not exist.
  [[nodiscard]] Host& e2e_sender(int i) { return hosts_[2 * e2e_index(i)]; }
  [[nodiscard]] Host& e2e_receiver(int i) { return hosts_[2 * e2e_index(i) + 1]; }
  [[nodiscard]] Host& local_sender(int segment, int i) {
    return hosts_[2 * local_index(segment, i)];
  }
  [[nodiscard]] Host& local_receiver(int segment, int i) {
    return hosts_[2 * local_index(segment, i) + 1];
  }

  /// The forward (congested-direction) link of segment `s`.
  [[nodiscard]] Link& segment(int s) { return forward_segment(segment_index(s)); }

  /// Propagation RTT of an end-to-end leaf pair (no queueing).
  [[nodiscard]] sim::SimTime e2e_rtt(int i) const;

 private:
  /// Host-pair index of e2e leaf `i` or of local leaf `i` of `segment`.
  [[nodiscard]] std::size_t e2e_index(int i) const;
  [[nodiscard]] std::size_t local_index(int segment, int i) const;
  [[nodiscard]] std::size_t segment_index(int s) const;
  // Segment s's links are the first built: forward at 2s, reverse at 2s + 1.
  [[nodiscard]] Link& forward_segment(std::size_t s) noexcept { return links_[2 * s]; }
  [[nodiscard]] Link& reverse_segment(std::size_t s) noexcept { return links_[2 * s + 1]; }

  Link& add_link(std::string name, Link::Config cfg, PacketSink& dst, std::int64_t buffer);
  /// Builds a host attached to router `attach` with its access links and
  /// installs its route at every router, pointing along the chain or down
  /// the access link.
  void add_host(const std::string& name, int attach, sim::SimTime delay);

  sim::Simulation& sim_;
  ParkingLotConfig config_;
  std::vector<sim::SimTime> e2e_delays_;

  // Declared in construction order, so they are destroyed in reverse.
  core::ObjectBlock<Router> routers_;        ///< num_segments + 1
  core::ObjectBlock<Host> hosts_;            ///< e2e pairs, then local pairs by segment
  core::ObjectBlock<DropTailQueue> queues_;  ///< one per link
  core::ObjectBlock<Link> links_;            ///< segments, then up/down per host
};

}  // namespace rbs::net
