#include "net/link.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/trace.hpp"

namespace rbs::net {
namespace {

const char* packet_span_name(PacketKind kind) {
  switch (kind) {
    case PacketKind::kTcpData: return "data";
    case PacketKind::kTcpAck: return "ack";
    case PacketKind::kUdp: return "udp";
  }
  return "pkt";
}

Queue& require_queue(const std::unique_ptr<Queue>& queue) {
  if (queue == nullptr) throw std::invalid_argument("link: queue must not be null");
  return *queue;
}

}  // namespace

Link::Link(sim::Simulation& sim, std::string name, Config config, Queue& queue,
           PacketSink& downstream)
    : sim_{sim}, name_{std::move(name)}, config_{config}, queue_{&queue}, downstream_{downstream} {
  // A zero, negative or non-finite rate makes every serialization time
  // zero or meaningless, so a run would spin at one instant forever.
  if (!(std::isfinite(config_.rate.bps()) && config_.rate.bps() > 0.0)) {
    throw std::invalid_argument("link '" + name_ + "': rate must be positive and finite");
  }
  // A rate so slow that a maximum-size packet (kMaxPacketBytes, larger
  // than any segment a real run sends) cannot be serialized inside the
  // SimTime range is a unit mistake, not a link. This is the picosecond
  // count sim::transmission_time computes, tested against the 2^63 edge
  // where SimTime::from_seconds saturates, without rounding it.
  constexpr double kMaxPacketBits = 8.0 * kMaxPacketBytes;
  if (!(kMaxPacketBits / config_.rate.bps() * 1e12 < 0x1p63)) {
    throw std::invalid_argument("link '" + name_ +
                                "': rate is too slow to serialize a packet in simulated time");
  }
  // The scheduler would clamp a delivery scheduled in the past to now(),
  // so a negative delay would silently become zero.
  if (config_.propagation < sim::SimTime::zero()) {
    throw std::invalid_argument("link '" + name_ + "': propagation delay must be >= 0");
  }
}

Link::Link(sim::Simulation& sim, std::string name, Config config, std::unique_ptr<Queue> queue,
           PacketSink& downstream)
    : Link{sim, std::move(name), config, require_queue(queue), downstream} {
  owns_queue_ = true;
  (void)queue.release();
}

Link::~Link() {
  if (owns_queue_) delete queue_;
}

const char* Link::trace_qlen_name() {
  if (trace_qlen_name_ == nullptr && sim_.trace() != nullptr) {
    trace_qlen_name_ = sim_.trace()->intern(name_ + "/qlen");
  }
  return trace_qlen_name_;
}

void Link::count_fault_drop(const char* reason, std::uint64_t LinkFaultStats::* counter) {
  ++(fault_stats_.*counter);
  // Cold path: fault drops are rare relative to forwarding, so the registry
  // lookup per drop is fine and unfaulted runs create no `faults.*` metrics.
  sim_.metrics().counter("faults.drops", {{"link", name_}, {"reason", reason}}).add();
  RBS_TRACE_INSTANT(sim_.trace(), "fault", reason, sim_.now(),
                    telemetry::TraceArg{"total", static_cast<std::int64_t>(fault_stats_.total())});
}

void Link::receive(const Packet& p) {
  if (fault_down_) {
    count_fault_drop("down-drop", &LinkFaultStats::down_drops);
    return;
  }
  if (fault_loss_p_ > 0.0 && fault_loss_rng_ != nullptr &&
      fault_loss_rng_->bernoulli(fault_loss_p_)) {
    count_fault_drop("loss-burst", &LinkFaultStats::loss_drops);
    return;
  }
  Packet stamped = p;
  stamped.hop_arrival = sim_.now();
  if (!busy_ && !fault_frozen_) {
    start_transmission(stamped);
    return;
  }
  if (!queue_->enqueue(stamped)) {
#if RBS_TRACE_ENABLED
    if (sim_.trace() != nullptr) {
      sim_.trace()->instant("queue", "drop", sim_.now(),
                            telemetry::TraceArg{"seq", stamped.seq},
                            telemetry::TraceArg{"qlen", queue_->size_packets()}, stamped.flow);
    }
#endif
    if (drops_counter_ == nullptr) {
      drops_counter_ = &sim_.metrics().counter("link.drops", {{"link", name_}});
    }
    drops_counter_->add();
    if (on_drop) on_drop(stamped);
    return;
  }
#if RBS_TRACE_ENABLED
  if (const char* qlen = trace_qlen_name(); qlen != nullptr) {
    sim_.trace()->counter("queue", qlen, sim_.now(),
                          static_cast<double>(occupancy_packets()));
  }
#endif
}

void Link::start_transmission(const Packet& p) {
  busy_ = true;
  in_service_ = p;
  const sim::SimTime tx =
      core::Bytes{p.size_bytes} / (config_.rate * fault_rate_factor_);
  // A serialization that would end at or past the last representable time
  // (a brownout to a near-zero rate, or an outsized packet) never ends: the
  // link stays busy with `p` until it goes down.
  if (tx >= sim::SimTime::infinity() - sim_.now()) return;
  tx_event_ = sim_.after(
      tx,
      [this, tx] {
        stats_.busy_time += tx;
        finish_transmission(in_service_);
      },
      sim::EventClass::kLinkTx);
}

// `p` may alias in_service_; the tail call into start_transmission (which
// overwrites it) is the last use of `p`.
void Link::finish_transmission(const Packet& p) {
  ++stats_.packets_delivered;
  stats_.bits_delivered += static_cast<std::uint64_t>(p.size_bytes) * 8;
#if RBS_TRACE_ENABLED
  if (telemetry::TraceSession* tr = sim_.trace(); tr != nullptr) {
    // One span per packet-hop: [arrival at this link, end of serialization].
    // tid = flow id, so Perfetto renders one lane per flow.
    tr->complete("pkt", packet_span_name(p.kind), p.hop_arrival, sim_.now() - p.hop_arrival,
                 telemetry::TraceArg{"seq", p.kind == PacketKind::kTcpAck ? p.ack : p.seq},
                 telemetry::TraceArg{"bytes", p.size_bytes}, p.flow);
    if (p.ecn_ce && p.kind == PacketKind::kTcpData) {
      tr->instant("queue", "ecn-mark", sim_.now(), telemetry::TraceArg{"seq", p.seq},
                  telemetry::TraceArg{}, p.flow);
    }
    if (const char* qlen = trace_qlen_name(); qlen != nullptr) {
      tr->counter("queue", qlen, sim_.now(), static_cast<double>(queue_->size_packets()));
    }
  }
#endif
  if (on_delivered) on_delivered(p);
  if (on_queue_delay) on_queue_delay(sim_.now() - p.hop_arrival);

  // Hand the packet to propagation; it no longer occupies the transmitter.
  // The lambda captures the down epoch it was launched in: if the link goes
  // down while the packet is on the wire, the epoch no longer matches and
  // the packet is lost (accounted as an in-flight fault drop).
  sim_.after(
      config_.propagation + fault_extra_propagation_,
      [this, p, epoch = down_epoch_] {
        if (epoch != down_epoch_) {
          count_fault_drop("inflight-drop", &LinkFaultStats::inflight_drops);
          return;
        }
        downstream_.receive(p);
      },
      sim::EventClass::kLinkPropagation);

  if (fault_frozen_) {
    busy_ = false;
    return;
  }
  if (auto next = queue_->dequeue()) {
    start_transmission(*next);
  } else {
    busy_ = false;
  }
}

void Link::maybe_resume_service() {
  if (busy_ || fault_down_ || fault_frozen_) return;
  if (auto next = queue_->dequeue()) start_transmission(*next);
}

void Link::fault_down() {
  if (fault_down_) return;
  fault_down_ = true;
  ++down_epoch_;  // strands every packet currently in propagation
  if (busy_) {
    // The packet in service is lost mid-serialization.
    tx_event_.cancel();
    busy_ = false;
    count_fault_drop("inflight-drop", &LinkFaultStats::inflight_drops);
  }
  // Flush buffered packets through the normal dequeue path so QueueStats
  // conservation (enqueued + carry == dequeued + evicted + resident) holds.
  while (queue_->dequeue()) {
    count_fault_drop("flushed", &LinkFaultStats::flushed_packets);
  }
}

void Link::fault_up() {
  if (!fault_down_) return;
  fault_down_ = false;
  maybe_resume_service();
}

void Link::fault_set_rate_factor(double factor) {
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    throw std::invalid_argument("link '" + name_ + "': fault rate factor must be positive");
  }
  // Applies from the next serialization; the packet in service finishes at
  // the rate it started with.
  fault_rate_factor_ = factor;
}

void Link::fault_set_extra_propagation(sim::SimTime extra) {
  if (extra < sim::SimTime::zero()) {
    throw std::invalid_argument("link '" + name_ + "': extra propagation must be >= 0");
  }
  fault_extra_propagation_ = extra;
}

void Link::fault_set_loss(double p, sim::Rng* rng) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("link '" + name_ + "': loss probability must be in [0, 1]");
  }
  if (p > 0.0 && rng == nullptr) {
    throw std::invalid_argument("link '" + name_ + "': an active loss burst needs an Rng");
  }
  fault_loss_p_ = p;
  fault_loss_rng_ = p > 0.0 ? rng : nullptr;
}

void Link::fault_set_frozen(bool frozen) {
  if (fault_frozen_ == frozen) return;
  fault_frozen_ = frozen;
  if (!frozen) maybe_resume_service();
}

}  // namespace rbs::net
