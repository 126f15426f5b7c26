#include "traffic/long_flow_workload.hpp"

namespace rbs::traffic {

LongFlowWorkload::LongFlowWorkload(sim::Simulation& sim, net::Dumbbell& topo,
                                   LongFlowWorkloadConfig config) {
  auto rng = sim.rng().fork(config.rng_stream);
  const int n = topo.num_leaves();
  sources_.reserve(static_cast<std::size_t>(n));
  sinks_.reserve(static_cast<std::size_t>(n));

  for (int i = 0; i < n; ++i) {
    const net::FlowId flow = config.first_flow_id + static_cast<net::FlowId>(i);
    sinks_.push_back(
        std::make_unique<tcp::TcpSink>(sim, topo.receiver(i), flow, config.sink));
    sources_.push_back(std::make_unique<tcp::TcpSource>(
        sim, topo.sender(i), topo.receiver(i).id(), flow, config.tcp, /*flow_packets=*/-1));
    const auto start = sim::SimTime::picoseconds(
        config.start_stagger.ps() > 0 ? rng.uniform_int(0, config.start_stagger.ps()) : 0);
    sources_.back()->start(start);
  }
}

double LongFlowWorkload::total_cwnd() const noexcept {
  double total = 0.0;
  for (const auto& s : sources_) total += s->cwnd();
  return total;
}

std::vector<double> LongFlowWorkload::cwnd_snapshot() const {
  std::vector<double> out;
  out.reserve(sources_.size());
  for (const auto& s : sources_) out.push_back(s->cwnd());
  return out;
}

tcp::TcpSourceStats LongFlowWorkload::total_stats() const noexcept {
  tcp::TcpSourceStats total;
  for (const auto& s : sources_) total += s->stats();
  return total;
}

void LongFlowWorkload::audit(check::AuditReport& report) const {
  if (sources_.size() != sinks_.size()) {
    report.violation("source/sink pairing broken: " + std::to_string(sources_.size()) +
                     " sources, " + std::to_string(sinks_.size()) + " sinks");
  }
  for (const auto& s : sources_) s->audit(report);
  for (const auto& s : sinks_) s->audit(report);
}

}  // namespace rbs::traffic
