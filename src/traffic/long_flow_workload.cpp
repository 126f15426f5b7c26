#include "traffic/long_flow_workload.hpp"

namespace rbs::traffic {

namespace {
constexpr std::uint64_t kRngStream = 0x10F6;  ///< start-time stagger
constexpr net::FlowId kFirstFlowId = 1;
}  // namespace

LongFlowWorkload::LongFlowWorkload(sim::Simulation& sim, net::Dumbbell& topo,
                                   const LongFlowWorkloadConfig& config)
    : sources_{static_cast<std::size_t>(LeafPlacement{topo, {0, config.num_flows}}.count())},
      sinks_{sources_.capacity()} {
  const auto n = static_cast<int>(sources_.capacity());
  auto rng = sim.rng().fork(kRngStream);
  for (int leaf = 0; leaf < n; ++leaf) {
    const net::FlowId flow = kFirstFlowId + static_cast<net::FlowId>(leaf);
    sinks_.emplace_back(sim, topo.receiver(leaf), flow, config.sink);
    tcp::TcpSource& source =
        sources_.emplace_back(sim, topo.sender(leaf), topo.receiver(leaf).id(), flow, config.tcp,
                              /*flow_packets=*/-1);
    const auto start = sim::SimTime::picoseconds(
        config.start_stagger.ps() > 0 ? rng.uniform_int(0, config.start_stagger.ps()) : 0);
    source.start(start);
  }
}

double LongFlowWorkload::total_cwnd() const noexcept {
  double total = 0.0;
  for (const auto& s : sources_) total += s.cwnd();
  return total;
}

std::vector<double> LongFlowWorkload::cwnd_snapshot() const {
  std::vector<double> out;
  out.reserve(sources_.size());
  for (const auto& s : sources_) out.push_back(s.cwnd());
  return out;
}

tcp::TcpSourceStats LongFlowWorkload::total_stats() const noexcept {
  tcp::TcpSourceStats total;
  for (const auto& s : sources_) total += s.stats();
  return total;
}

void LongFlowWorkload::audit(check::AuditReport& report) const {
  if (sources_.size() != sinks_.size()) {
    report.violation("source/sink pairing broken: " + std::to_string(sources_.size()) +
                     " sources, " + std::to_string(sinks_.size()) + " sinks");
  }
  for (const auto& s : sources_) s.audit(report);
  for (const auto& s : sinks_) s.audit(report);
}

}  // namespace rbs::traffic
