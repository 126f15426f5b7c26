#include "traffic/flow_table.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace rbs::traffic {

LeafPlacement::LeafPlacement(const net::Dumbbell& topo, LeafRange range)
    : first_{range.first} {
  const int leaves = topo.num_leaves();
  // Leaves from first_ to the last one; -1 when first_ is off the topology.
  const int room = first_ >= 0 && first_ <= leaves ? leaves - first_ : -1;
  count_ = range.count.value_or(room);
  if (room < 0 || count_ < 0 || count_ > room) {
    throw std::invalid_argument(
        "leaf range [" + std::to_string(range.first) + ", +" +
        (range.count ? std::to_string(*range.count) : std::string{"all"}) +
        ") does not fit a topology of " + std::to_string(leaves) + " leaves");
  }
}

FlowTable::FlowTable(sim::Simulation& sim, net::Dumbbell& topo, const tcp::TcpConfig& tcp,
                     const tcp::TcpSinkConfig& sink)
    : sim_{sim}, topo_{topo}, tcp_{tcp}, sink_{sink} {}

bool FlowTable::launch(int leaf, net::FlowId flow, std::int64_t packets,
                       std::function<void()> then) {
  if (open_.contains(flow)) return false;
  OpenFlow f;
  f.sink = std::make_unique<tcp::TcpSink>(sim_, topo_.receiver(leaf), flow, sink_);
  f.source = std::make_unique<tcp::TcpSource>(sim_, topo_.sender(leaf),
                                              topo_.receiver(leaf).id(), flow, tcp_, packets);
  f.source->set_completion_callback([this, flow](tcp::TcpSource&) {
    // The source is still inside its ACK handler: reap one event later.
    sim_.after(sim::SimTime::zero(), [this, flow] { reap(flow); }, sim::EventClass::kWorkload);
  });
  f.then = std::move(then);
  f.source->start(sim_.now());
  open_.emplace(flow, std::move(f));
  ++started_;
  return true;
}

bool FlowTable::reap(net::FlowId flow) {
  const auto it = open_.find(flow);
  if (it == open_.end()) {
    ++rejected_;
    return false;
  }
  const tcp::TcpSource& src = *it->second.source;
  fct_.add({src.flow_packets(), src.start_time(), src.finish_time()});
  ++completed_;
  if (on_flow_complete) on_flow_complete(src);
  const std::function<void()> then = std::move(it->second.then);
  open_.erase(it);
  if (then) then();
  return true;
}

void FlowTable::audit(check::AuditReport& report) const {
  if (started_ != completed_ + open_.size()) {
    report.violation("flow accounting broken: started " + std::to_string(started_) +
                     " != completed " + std::to_string(completed_) + " + active " +
                     std::to_string(open_.size()));
  }
  fct_.audit(report);
  for (const auto& [id, f] : open_) {
    f.source->audit(report);
    f.sink->audit(report);
  }
}

}  // namespace rbs::traffic
