#include "traffic/session_workload.hpp"

#include <cmath>
#include <stdexcept>

namespace rbs::traffic {

namespace {
constexpr std::uint64_t kRngStream = 0xA4B00;
constexpr net::FlowId kFirstFlowId = 2'000'000;
}  // namespace

SessionWorkload::SessionWorkload(sim::Simulation& sim, net::Dumbbell& topo,
                                 FlowSizeDistribution& sizes, const SessionWorkloadConfig& config)
    : FlowTable{sim, topo, config.tcp, config.sink},
      sim_{sim},
      sizes_{sizes},
      placement_{topo, LeafRange{}},
      mean_think_time_sec_{config.mean_think_time_sec},
      rng_{sim.rng().fork(kRngStream)} {
  if (config.sessions_per_leaf < 1) {
    throw std::invalid_argument("session workload: sessions_per_leaf must be >= 1");
  }
  if (!(mean_think_time_sec_ >= 0 && std::isfinite(mean_think_time_sec_))) {
    throw std::invalid_argument("session workload: mean_think_time_sec must be >= 0 and finite");
  }
  const int sessions = placement_.count() * config.sessions_per_leaf;
  next_start_.resize(static_cast<std::size_t>(sessions));
  // The first pauses stagger the initial starts across one mean think time.
  for (int i = 0; i < sessions; ++i) think(i);
}

SessionWorkload::~SessionWorkload() {
  stopped_ = true;
  for (auto& h : next_start_) h.cancel();
}

void SessionWorkload::start_transfer(int session) {
  if (stopped_) return;
  const std::int64_t packets = sizes_.sample(rng_);
  launch(placement_.leaf(static_cast<std::uint64_t>(session)),
         kFirstFlowId + static_cast<net::FlowId>(flows_started()), packets,
         [this, session] { think(session); });
}

void SessionWorkload::think(int session) {
  if (stopped_) return;
  const auto pause = sim::SimTime::from_seconds(rng_.exponential(mean_think_time_sec_));
  next_start_[static_cast<std::size_t>(session)] =
      sim_.after(pause, [this, session] { start_transfer(session); }, sim::EventClass::kWorkload);
}

}  // namespace rbs::traffic
