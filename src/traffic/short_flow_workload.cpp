#include "traffic/short_flow_workload.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace rbs::traffic {

namespace {
constexpr std::uint64_t kRngStream = 0x51F0;
constexpr net::FlowId kFirstFlowId = 1'000'000;
}  // namespace

double arrival_rate_for_load(double load, core::BitsPerSec rate, double mean_flow_packets,
                             core::Bytes packet_size) noexcept {
  assert(load > 0 && mean_flow_packets > 0);
  const double flow_bits = mean_flow_packets * 8.0 * static_cast<double>(packet_size.count());
  return load * rate.bps() / flow_bits;
}

ShortFlowWorkload::ShortFlowWorkload(sim::Simulation& sim, net::Dumbbell& topo,
                                     FlowSizeDistribution& sizes,
                                     const ShortFlowWorkloadConfig& config)
    : FlowTable{sim, topo, config.tcp, config.sink},
      sim_{sim},
      sizes_{sizes},
      placement_{topo, config.leaves},
      mean_gap_sec_{1.0 / config.arrivals_per_sec},
      rng_{sim.rng().fork(kRngStream)} {
  if (!(config.arrivals_per_sec > 0 && std::isfinite(config.arrivals_per_sec))) {
    throw std::invalid_argument("short-flow workload: arrivals_per_sec must be positive and "
                                "finite");
  }
  if (placement_.count() == 0) {
    throw std::invalid_argument("short-flow workload: leaf range holds no leaf");
  }
  arrival_event_ = sim_.after(sim::SimTime::zero(), [this] { arrive(); },
                              sim::EventClass::kWorkload);
}

ShortFlowWorkload::~ShortFlowWorkload() { stop_arrivals(); }

void ShortFlowWorkload::arrive() {
  const std::int64_t packets = sizes_.sample(rng_);
  launch(placement_.leaf(flows_started()),
         kFirstFlowId + static_cast<net::FlowId>(flows_started()), packets);
  arrival_event_ = sim_.after(sim::SimTime::from_seconds(rng_.exponential(mean_gap_sec_)),
                              [this] { arrive(); }, sim::EventClass::kWorkload);
}

}  // namespace rbs::traffic
