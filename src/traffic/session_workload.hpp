// Harpoon-style session workload (Sommers & Barford, the generator used for
// the paper's Cisco GSR experiment).
//
// A fixed population of "users" each runs an ON/OFF loop: transfer a file
// (drawn from a flow-size distribution) over a fresh TCP connection, think
// for an exponentially distributed pause, repeat. With heavy-tailed sizes
// this produces the self-similar byte arrivals Harpoon was built to emulate,
// and — unlike open Poisson arrivals — it is closed-loop: users back off
// when the network is slow, as real ones do.
#pragma once

#include <cstdint>
#include <vector>

#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "traffic/flow_size.hpp"
#include "traffic/flow_table.hpp"

namespace rbs::traffic {

struct SessionWorkloadConfig {
  tcp::TcpConfig tcp{};
  tcp::TcpSinkConfig sink{};
  int sessions_per_leaf{1};
  double mean_think_time_sec{1.0};  ///< exponential OFF period
};

/// Runs a closed population of transfer/think sessions over every leaf of a
/// dumbbell; session i lives on leaf i mod (number of leaves). The private
/// FlowTable base owns and reaps the transfers.
class SessionWorkload : private FlowTable {
 public:
  using FlowTable::audit;
  using FlowTable::completions;

  /// `sizes` must outlive the workload. Throws std::invalid_argument when
  /// sessions_per_leaf < 1 or the mean think time is negative or not finite.
  SessionWorkload(sim::Simulation& sim, net::Dumbbell& topo, FlowSizeDistribution& sizes,
                  const SessionWorkloadConfig& config);
  ~SessionWorkload();

  /// Lets in-flight transfers finish but starts no new ones.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] int num_sessions() const noexcept {
    return static_cast<int>(next_start_.size());
  }
  [[nodiscard]] std::uint64_t transfers_completed() const noexcept { return flows_completed(); }
  [[nodiscard]] std::uint64_t transfers_started() const noexcept { return flows_started(); }
  /// Sessions currently transferring (the rest are thinking).
  [[nodiscard]] int sessions_active() const noexcept {
    return static_cast<int>(flows_active());
  }

 private:
  void start_transfer(int session);
  /// Schedules the session's next transfer after an exponential pause.
  void think(int session);

  sim::Simulation& sim_;
  FlowSizeDistribution& sizes_;
  LeafPlacement placement_;
  double mean_think_time_sec_;
  sim::Rng rng_;
  std::vector<sim::Scheduler::EventHandle> next_start_;  ///< one per session
  bool stopped_{false};
};

}  // namespace rbs::traffic
