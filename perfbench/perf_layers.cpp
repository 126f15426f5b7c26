// Per-layer metrics for one benchmark workload. Five parts, all timed from
// this file around calls into the simulator's public interfaces (nothing in
// src/ is instrumented):
//
//   replay     the workload's sweep, run untraced and traced in turn. The
//              traced batches record one span per sweep point (SweepObserver)
//              and one per simulation run (BufferProbePrepare, or around the
//              call where the API has no hook); their answers must equal the
//              untraced ones.
//   reference  one representative world per workload, assembled from
//              sim::Simulation, net::Dumbbell and the traffic workloads in the
//              order run_*_experiment builds them, run untraced and then with
//              telemetry::EngineProfiler attached. Bottleneck LinkStats give
//              the exact packet count.
//   setup      the world behind the end-to-end setup_s, assembled the same way
//              at zero horizon, split into its Dumbbell build and the rest.
//   isolated   the operations bench/micro_engine does not time (link hop, RED,
//              TCP source and sink ACK), each the median of five repetitions.
//   micro      the operations bench/micro_engine does time (scheduler, drop-tail
//              queue, CCA strategies, sketch, sweep dispatch), read from its
//              results: run_benchmark.py runs the benchmarks --list-micro names
//              and passes the median real time of one iteration of each as
//              --micro NAME=NS.
//
// The per-packet ledger combines the last three: predicted ns per delivered
// bottleneck packet = Σ (operations per packet × ns per operation), with
// nested operations counted once (see perfbench/README.md).
//
//   perf_layers --workload fig7 --seed 1 --threads 4 --micro BM_SketchRecord=85.1 ...
//               [--answers-out ANSWERS] [--trace-out TRACE.json]
//       prints one "metric <name> <value> <unit>" line per per-layer metric
//   perf_layers --list-metrics
//       prints "<name> <unit>" for every metric it reports
//   perf_layers --list-micro --threads 4
//       prints the micro_engine benchmarks whose results it needs
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "experiment/cca_matrix.hpp"
#include "experiment/long_flow_experiment.hpp"
#include "experiment/short_flow_experiment.hpp"
#include "experiment/sweep.hpp"
#include "experiment/telemetry_hookup.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/dumbbell.hpp"
#include "net/link.hpp"
#include "net/red_queue.hpp"
#include "sim/simulation.hpp"
#include "stats/time_series.hpp"
#include "sweeps.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"
#include "telemetry/profiler.hpp"
#include "traffic/flow_size.hpp"
#include "traffic/long_flow_workload.hpp"
#include "traffic/short_flow_workload.hpp"

namespace {

using namespace rbs;
using Clock = std::chrono::steady_clock;
using perfbench::Workload;

/// Receives a value from each timed loop so the work stays observable.
volatile double g_keep = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU time of this process so far, over all its threads.
double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Metric table -------------------------------------------------------------
//
// Every metric this program reports, in print order. BENCHMARK.json's
// per_layer list must name exactly these (perfbench/check.py compares them).

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The event classes the ledger breaks down (EventClass tags in src/sim).
constexpr sim::EventClass kLedgerClasses[] = {
    sim::EventClass::kLinkTx,   sim::EventClass::kLinkPropagation, sim::EventClass::kTcpTimer,
    sim::EventClass::kTcpPacing, sim::EventClass::kSampler,        sim::EventClass::kWorkload};

constexpr tcp::TcpFlavor kMatrixFlavors[] = {tcp::TcpFlavor::kNewReno, tcp::TcpFlavor::kCubic,
                                             tcp::TcpFlavor::kBbr, tcp::TcpFlavor::kDctcp};

std::vector<MetricSpec> metric_table() {
  std::vector<MetricSpec> t{
      {"experiment.runs", "count"},
      {"experiment.run_ms_p50", "ms"},
      {"experiment.run_ms_tail", "ms"},
      {"experiment.worker_busy_frac", "fraction"},
      {"experiment.critical_path_s", "s"},
      {"experiment.setup_ms", "ms"},
      {"experiment.dispatch_us", "us"},
      {"sim.events_per_pkt", "events/pkt"},
  };
  for (const auto cls : kLedgerClasses) {
    t.push_back({std::string{"sim.events_per_pkt."} + sim::event_class_name(cls), "events/pkt"});
  }
  for (const auto cls : kLedgerClasses) {
    t.push_back({std::string{"sim.callback_ns."} + sim::event_class_name(cls), "ns"});
  }
  t.insert(t.end(), {
                        {"sim.event_ns", "ns"},
                        {"sim.schedule_fire_ns", "ns"},
                        {"sim.schedule_cancel_ns", "ns"},
                        {"sim.pool_slots", "count"},
                        {"net.link_hop_ns", "ns"},
                        {"net.queue_ns.droptail", "ns"},
                        {"net.queue_ns.red", "ns"},
                        {"net.build_us", "us"},
                        {"net.loss_rate", "fraction"},
                    });
  for (const auto flavor : kMatrixFlavors) {
    t.push_back({std::string{"tcp.cca_step_ns."} + tcp::flavor_name(flavor), "ns"});
  }
  t.insert(t.end(), {
                        {"tcp.source_ack_ns", "ns"},
                        {"tcp.sink_ack_ns", "ns"},
                        {"tcp.acks_per_pkt", "acks/pkt"},
                        {"tcp.retransmits_per_pkt", "1/pkt"},
                        {"tcp.timeouts", "count"},
                        {"traffic.flows_completed", "count"},
                        {"telemetry.sketch_record_ns", "ns"},
                        {"trace.overhead_frac", "fraction"},
                        {"trace.profiler_overhead_frac", "fraction"},
                        {"ledger.pkt_ns", "ns"},
                        {"ledger.pkt_ns_predicted", "ns"},
                        {"ledger.unexplained_frac", "fraction"},
                    });
  return t;
}

/// Metric values by name, printed in table order.
class Report {
 public:
  Report() : table_{metric_table()} {}

  void set(const std::string& name, double value) {
    const bool known = std::any_of(table_.begin(), table_.end(),
                                   [&](const MetricSpec& m) { return name == m.name; });
    if (!known) throw std::logic_error("unknown metric " + name);
    values_[name] = value;
  }

  /// Prints every metric; false if one was never set.
  bool print() const {
    bool complete = true;
    for (const MetricSpec& m : table_) {
      const auto it = values_.find(m.name);
      if (it == values_.end()) {
        std::fprintf(stderr, "perf_layers: metric %s was not measured\n", m.name.c_str());
        complete = false;
        continue;
      }
      std::printf("metric %s %.9g %s\n", m.name.c_str(), it->second, m.unit.c_str());
    }
    return complete;
  }

 private:
  std::vector<MetricSpec> table_;
  std::map<std::string, double> values_;
};

// --- Spans --------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us{0};
  double end_us{0};
  int worker{0};
  std::size_t id{0};  ///< sweep point index, shared by a point and its runs

  [[nodiscard]] double ms() const { return (end_us - start_us) / 1e3; }
};

/// Collects point and run spans from sweep worker threads.
class SpanRecorder final : public perfbench::RunObserver {
 public:
  explicit SpanRecorder(Clock::time_point epoch) : epoch_{epoch} {}

  experiment::SweepObserver observer() {
    experiment::SweepObserver obs;
    obs.on_point_start = [this](std::size_t index, int worker) {
      const std::lock_guard lock{mu_};
      worker_of_[index] = worker;
      point_start_[index] = now_us();
    };
    obs.on_point_done = [this](std::size_t index, int worker) {
      const std::lock_guard lock{mu_};
      spans_.push_back({"point", point_start_[index], now_us(), worker, index});
    };
    return obs;
  }

  void run_begin(std::size_t point) override {
    const std::lock_guard lock{mu_};
    close_run(point);
    open_run_[point] = now_us();
  }

  void run_end(std::size_t point) override {
    const std::lock_guard lock{mu_};
    close_run(point);
  }

  /// A span timed by the caller (reference-world phases).
  void add(std::string name, Clock::time_point start, Clock::time_point end, std::size_t id) {
    const std::lock_guard lock{mu_};
    spans_.push_back({std::move(name), to_us(start), to_us(end), -1, id});
  }

  [[nodiscard]] std::vector<Span> take(const std::string& name) {
    const std::lock_guard lock{mu_};
    std::vector<Span> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  }

  void clear_sweep() {
    const std::lock_guard lock{mu_};
    std::erase_if(spans_, [](const Span& s) { return s.worker >= 0; });
    worker_of_.clear();
    point_start_.clear();
    open_run_.clear();
  }

  /// Chrome trace_event JSON: complete events on one lane per worker
  /// (reference-world phases on lane -1).
  [[nodiscard]] std::string chrome_json() const {
    const std::lock_guard lock{mu_};
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                    "\"tid\":%d,\"args\":{\"id\":%zu}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.end_us - s.start_us,
                    s.worker, s.id);
      out += buf;
    }
    return out + "]}\n";
  }

 private:
  void close_run(std::size_t point) {
    const auto it = open_run_.find(point);
    if (it == open_run_.end()) return;
    spans_.push_back({"run", it->second, now_us(), worker_of_[point], point});
    open_run_.erase(it);
  }
  [[nodiscard]] double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  [[nodiscard]] double now_us() const { return to_us(Clock::now()); }

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::map<std::size_t, int> worker_of_;
  std::map<std::size_t, double> point_start_;
  std::map<std::size_t, double> open_run_;
  std::vector<Span> spans_;
};

// --- Operations micro_engine times ----------------------------------------------

/// A bench/micro_engine benchmark and the operations one iteration performs.
struct MicroBench {
  std::string name;
  double ops_per_iteration{1};
};

/// Population arguments of BM_SchedulerBackendWheel.
constexpr std::uint64_t kWheelPopulations[] = {300, 4'096};
/// Worker-count arguments of BM_ParallelSweepDispatch.
constexpr int kDispatchWorkers[] = {1, 2, 4, 8};

/// Schedule+fire on the default (wheel) backend under a TCP-like mix of
/// packet-clock and timer delays, at the standing population nearest (by
/// ratio) to `population`. One iteration fires 10'000 events.
MicroBench schedule_fire_bench(std::uint64_t population) {
  const auto distance = [&](std::uint64_t p) {
    return std::abs(std::log(static_cast<double>(p) / static_cast<double>(population)));
  };
  std::uint64_t best = kWheelPopulations[0];
  for (const auto p : kWheelPopulations) {
    if (distance(p) < distance(best)) best = p;
  }
  return {"BM_SchedulerBackendWheel/" + std::to_string(best), 10'000};
}

/// One 64-point batch of trivial sweep points on the largest worker count
/// not above `threads`.
MicroBench dispatch_bench(int threads) {
  int workers = kDispatchWorkers[0];
  for (const int w : kDispatchWorkers) {
    if (w <= threads) workers = w;
  }
  return {"BM_ParallelSweepDispatch/" + std::to_string(workers), 1};
}

/// BM_CcaStep's argument is the flavor's index in all_flavors().
MicroBench cca_step_bench(tcp::TcpFlavor flavor) {
  const auto& flavors = tcp::all_flavors();
  const auto index = std::find(flavors.begin(), flavors.end(), flavor) - flavors.begin();
  return {"BM_CcaStep/" + std::to_string(index), 1};
}

const MicroBench kScheduleCancelBench{"BM_SchedulerScheduleCancel", 1};
const MicroBench kDropTailBench{"BM_DropTailEnqueueDequeue", 1};
const MicroBench kSketchBench{"BM_SketchRecord", 1};

/// Every benchmark main() may read, for --list-micro.
std::vector<MicroBench> micro_benches(int threads) {
  std::vector<MicroBench> out;
  for (const auto p : kWheelPopulations) out.push_back(schedule_fire_bench(p));
  out.push_back(kScheduleCancelBench);
  out.push_back(kDropTailBench);
  for (const auto flavor : kMatrixFlavors) out.push_back(cca_step_bench(flavor));
  out.push_back(kSketchBench);
  out.push_back(dispatch_bench(threads));
  return out;
}

/// micro_engine results passed as NAME=NS, NS the real time of one iteration.
class MicroResults {
 public:
  /// False if `arg` is not NAME=NS.
  bool add(const std::string& arg) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    char* end = nullptr;
    const double ns = std::strtod(arg.c_str() + eq + 1, &end);
    if (end == arg.c_str() + eq + 1 || *end != '\0' || !(ns > 0)) return false;
    ns_per_iteration_[arg.substr(0, eq)] = ns;
    return true;
  }

  /// ns per operation of `b`; throws if no result for it was passed.
  [[nodiscard]] double per_op_ns(const MicroBench& b) const {
    const auto it = ns_per_iteration_.find(b.name);
    if (it == ns_per_iteration_.end()) {
      throw std::runtime_error("no micro_engine result for " + b.name + " (pass --micro " +
                               b.name + "=NS)");
    }
    return it->second / b.ops_per_iteration;
  }

 private:
  std::map<std::string, double> ns_per_iteration_;
};

// --- Operations timed here ----------------------------------------------------

/// Median ns per operation over five repetitions. `op(n)` performs about n
/// operations and returns how many it performed; each repetition grows n
/// until it runs for at least 20 ms.
double ns_per_op(const std::function<std::uint64_t(std::uint64_t)>& op) {
  std::vector<double> reps;
  std::uint64_t n = 64;
  for (int rep = 0; rep < 5; ++rep) {
    for (;;) {
      const auto t0 = Clock::now();
      const std::uint64_t done = op(n);
      const double sec = seconds_since(t0);
      if (sec >= 0.02 || n >= (1ULL << 32)) {
        reps.push_back(sec * 1e9 / static_cast<double>(done));
        break;
      }
      n *= sec > 0.002 ? static_cast<std::uint64_t>(0.025 / sec) + 1 : 10;
    }
  }
  return median(reps);
}

class NullSink final : public net::PacketSink {
 public:
  void receive(const net::Packet&) override { ++received; }
  std::uint64_t received{0};
};

/// One packet through a drop-tail link: receive (queueing behind the packet
/// in service), serialization event, dequeue, propagation event, delivery.
double link_hop_ns() {
  sim::Simulation sim;
  NullSink sink;
  net::Link link{sim, "hop", {core::BitsPerSec::gigabits(1), sim::SimTime::milliseconds(1)},
                 std::make_unique<net::DropTailQueue>(1 << 20), sink};
  net::Packet p;
  p.size_bytes = 1000;
  return ns_per_op([&](std::uint64_t n) {
    const std::uint64_t before = sink.received;
    for (std::uint64_t i = 0; i < n; i += 64) {
      for (int j = 0; j < 64; ++j) link.receive(p);
      sim.run_until(sim.now() + sim::SimTime::milliseconds(2));  // 64 x 8 us + 1 ms
    }
    return sink.received - before;
  });
}

/// RED enqueue+dequeue on an otherwise empty queue: the pattern of
/// micro_engine's BM_DropTailEnqueueDequeue, so the two differ only by the
/// discipline.
double red_queue_ns() {
  sim::Simulation sim;
  net::RedQueue q{sim, 1024};
  net::Packet p;
  p.size_bytes = 1000;
  return ns_per_op([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      q.enqueue(p);
      g_keep = static_cast<double>(q.dequeue()->seq);
    }
    return n;
  });
}

/// One cumulative ACK delivered to a NewReno source through its host, which
/// releases one segment into a discarding uplink (window capped at 64).
double source_ack_ns() {
  sim::Simulation sim;
  net::Host host{sim, 1, "sender"};
  NullSink uplink;
  host.attach_uplink(uplink);
  tcp::TcpConfig cfg;
  cfg.max_window = 64;
  tcp::TcpSource src{sim, host, 2, 1, cfg};
  sim.run_until(sim::SimTime::seconds(1));
  src.start(sim.now());
  sim.run_until(sim.now());
  net::Packet ack;
  ack.flow = 1;
  ack.kind = net::PacketKind::kTcpAck;
  ack.src = 2;
  ack.dst = 1;
  ack.size_bytes = 40;
  return ns_per_op([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      ack.ack = src.snd_una() + 1;
      ack.timestamp = sim.now() - sim::SimTime::milliseconds(50);
      host.receive(ack);
      if (i % 64 == 63) sim.run_until(sim.now() + sim::SimTime::microseconds(64));
    }
    return n;
  });
}

/// One in-order data packet delivered to a sink through its host, which
/// answers with an ACK into a discarding uplink.
double sink_ack_ns() {
  sim::Simulation sim;
  net::Host host{sim, 2, "receiver"};
  NullSink uplink;
  host.attach_uplink(uplink);
  tcp::TcpSink sink{sim, host, 1};
  net::Packet data;
  data.flow = 1;
  data.kind = net::PacketKind::kTcpData;
  data.src = 1;
  data.dst = 2;
  data.size_bytes = 1000;
  std::int64_t seq = 0;
  return ns_per_op([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      data.seq = seq++;
      host.receive(data);
    }
    return n;
  });
}

// --- Reference worlds -------------------------------------------------------

/// Counts of one reference-world run (summed over the matrix's flavors).
struct WorldCounts {
  std::uint64_t packets{0};  ///< delivered by the forward bottleneck
  std::uint64_t acks{0};     ///< delivered by the reverse bottleneck
  std::uint64_t offered{0};  ///< delivered + dropped at the forward bottleneck
  std::uint64_t drops{0};
  std::uint64_t events{0};
  std::uint64_t pool_slots{0};
  std::uint64_t pending_peak{0};
  std::uint64_t retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t flows_completed{0};
  std::uint64_t red_packets{0};  ///< forward-bottleneck packets that went through RED
  std::map<tcp::TcpFlavor, std::uint64_t> acks_by_flavor;
  double wall_s{0};

  void add(const WorldCounts& o) {
    packets += o.packets;
    acks += o.acks;
    offered += o.offered;
    drops += o.drops;
    events += o.events;
    pool_slots = std::max(pool_slots, o.pool_slots);
    pending_peak = std::max(pending_peak, o.pending_peak);
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    flows_completed += o.flows_completed;
    red_packets += o.red_packets;
    for (const auto& [f, a] : o.acks_by_flavor) acks_by_flavor[f] += a;
    wall_s += o.wall_s;
  }
};

/// Times the phases of one assembled world: each as a span when given a
/// recorder, and by name for seconds().
class Phases {
 public:
  Phases(SpanRecorder* spans, std::size_t id) : spans_{spans}, id_{id} {}
  template <typename F>
  void operator()(const char* name, F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    if (count_ < timed_.size()) timed_[count_++] = {name, std::chrono::duration<double>(t1 - t0).count()};
    if (spans_ != nullptr) spans_->add(name, t0, t1, id_);
  }

  /// Seconds spent in the phases called `name`.
  [[nodiscard]] double seconds(std::string_view name) const {
    double s = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      if (timed_[i].first == name) s += timed_[i].second;
    }
    return s;
  }

 private:
  SpanRecorder* spans_;
  std::size_t id_;
  std::array<std::pair<const char*, double>, 16> timed_{};  ///< fixed, so timing never allocates
  std::size_t count_{0};
};

void harvest_bottleneck(net::Dumbbell& topo, sim::Simulation& sim, WorldCounts& c) {
  c.packets = topo.bottleneck().stats().packets_delivered;
  c.acks = topo.reverse_bottleneck().stats().packets_delivered;
  c.drops = topo.bottleneck().queue().stats().dropped_packets;
  c.offered = c.packets + c.drops;
  c.events = sim.scheduler().executed_events();
  c.pool_slots = sim.scheduler().pool_capacity() + sim.scheduler().pool_big_capacity();
}

// The worlds below follow run_long_flow_experiment and
// run_short_flow_experiment step for step: the same objects built in the
// same order, warm-up first, and only then the queue sampler and the
// telemetry series, scheduled in the experiments' order. No workload turns
// on telemetry metrics, flow stats or convergence early exit, so the
// experiments' convergence sampler and flow harvest have no counterpart
// here. The worlds differ in two ways, neither of which schedules or changes
// an event: bottleneck counters are not reset at warm-up, so the counts
// cover the whole run the wall time covers, and the queue sampler also notes
// the scheduler's pending-event peak.

/// A long-flow world: fig7 and cca_matrix runs.
WorldCounts assembled_world(const experiment::LongFlowExperimentConfig& cfg,
                            telemetry::EngineProfiler* profiler, Phases& phase) {
  WorldCounts c;
  const auto t0 = Clock::now();
  const sim::SimTime horizon = cfg.warmup + cfg.measure;
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<experiment::ExperimentTelemetry> tele;
  std::unique_ptr<net::Dumbbell> topo;
  std::unique_ptr<traffic::LongFlowWorkload> workload;
  std::unique_ptr<stats::PeriodicSampler> sampler;
  phase("world.Simulation", [&] {
    sim = std::make_unique<sim::Simulation>(cfg.seed, cfg.scheduler_backend, horizon);
  });
  phase("world.ExperimentTelemetry", [&] {
    tele = std::make_unique<experiment::ExperimentTelemetry>(*sim, cfg.telemetry);
  });
  phase("world.Dumbbell", [&] {
    topo = std::make_unique<net::Dumbbell>(*sim, perfbench::dumbbell_config(cfg));
  });
  phase("world.LongFlowWorkload", [&] {
    traffic::LongFlowWorkloadConfig wl;
    wl.tcp = cfg.tcp;
    wl.sink = cfg.sink;
    wl.start_stagger = std::min(cfg.warmup, sim::SimTime::seconds(5));
    workload = std::make_unique<traffic::LongFlowWorkload>(*sim, *topo, wl);
  });
  sim->set_profiler(profiler);
  phase("world.warmup", [&] { sim->run_until(cfg.warmup); });

  tele->add_bottleneck_probes(topo->bottleneck());
  tele->add_probe("cwnd_total_pkts", [&] { return workload->total_cwnd(); });
  tele->start(sim->now() + cfg.telemetry.sample_interval);
  const auto interval = sim::SimTime::milliseconds(10);
  sampler = std::make_unique<stats::PeriodicSampler>(*sim, interval, [&] {
    c.pending_peak = std::max<std::uint64_t>(c.pending_peak, sim->scheduler().pending_events());
    return static_cast<double>(topo->bottleneck().occupancy_packets());
  });
  sampler->start(sim->now() + interval);
  phase("world.measure", [&] { sim->run_until(horizon); });
  sim->set_profiler(nullptr);

  harvest_bottleneck(*topo, *sim, c);
  const auto tcp = workload->total_stats();
  c.retransmits = tcp.retransmissions;
  c.timeouts = tcp.timeouts;
  c.acks_by_flavor[cfg.tcp.flavor] = tcp.acks_received;
  if (cfg.discipline == net::QueueDiscipline::kRed) c.red_packets = c.offered;
  phase("world.telemetry_finish", [&] { (void)tele->finish(); });
  phase("world.teardown", [&] {
    sampler.reset();
    workload.reset();
    topo.reset();
    tele.reset();
    sim.reset();
  });
  c.wall_s = seconds_since(t0);
  return c;
}

/// The fig8 world: Poisson arrivals of 62-packet flows at load 0.8 and the
/// once-per-packet-time queue sampler.
WorldCounts assembled_world(const experiment::ShortFlowExperimentConfig& cfg,
                            telemetry::EngineProfiler* profiler, Phases& phase) {
  WorldCounts c;
  const auto t0 = Clock::now();
  const sim::SimTime horizon = cfg.warmup + cfg.measure;
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<experiment::ExperimentTelemetry> tele;
  std::unique_ptr<net::Dumbbell> topo;
  traffic::FixedFlowSize sizes{cfg.flow_packets};
  std::unique_ptr<traffic::ShortFlowWorkload> workload;
  std::unique_ptr<stats::PeriodicSampler> sampler;
  phase("world.Simulation", [&] {
    sim = std::make_unique<sim::Simulation>(cfg.seed, cfg.scheduler_backend, horizon);
  });
  phase("world.ExperimentTelemetry", [&] {
    tele = std::make_unique<experiment::ExperimentTelemetry>(*sim, cfg.telemetry);
  });
  phase("world.Dumbbell", [&] {
    topo = std::make_unique<net::Dumbbell>(*sim, perfbench::dumbbell_config(cfg));
  });
  phase("world.ShortFlowWorkload", [&] {
    traffic::ShortFlowWorkloadConfig wl;
    wl.tcp = cfg.tcp;
    wl.arrivals_per_sec = traffic::arrival_rate_for_load(cfg.load, cfg.bottleneck_rate,
                                                         sizes.mean(), cfg.tcp.segment);
    workload = std::make_unique<traffic::ShortFlowWorkload>(*sim, *topo, sizes, wl);
  });
  workload->on_flow_complete = [&c](const tcp::TcpSource& src) {
    c.retransmits += src.stats().retransmissions;
    c.timeouts += src.stats().timeouts;
    c.acks_by_flavor[src.config().flavor] += src.stats().acks_received;
  };
  sim->set_profiler(profiler);
  phase("world.warmup", [&] { sim->run_until(cfg.warmup); });

  tele->add_bottleneck_probes(topo->bottleneck());
  tele->add_probe("flows_active", [&] { return static_cast<double>(workload->flows_active()); });
  tele->start(sim->now() + cfg.telemetry.sample_interval);
  const double pkt_sec =
      8.0 * static_cast<double>(cfg.tcp.segment.count()) / cfg.bottleneck_rate.bps();
  const auto every = sim::SimTime::from_seconds(std::max(pkt_sec, 1e-6));
  std::vector<std::uint64_t> census;
  sampler = std::make_unique<stats::PeriodicSampler>(*sim, every, [&] {
    const auto q = static_cast<std::size_t>(topo->bottleneck().occupancy_packets());
    if (q >= census.size()) census.resize(q + 1, 0);
    ++census[q];
    c.pending_peak = std::max<std::uint64_t>(c.pending_peak, sim->scheduler().pending_events());
    return static_cast<double>(q);
  });
  sampler->start(sim->now() + every);
  phase("world.measure", [&] { sim->run_until(horizon); });
  sim->set_profiler(nullptr);

  harvest_bottleneck(*topo, *sim, c);
  c.flows_completed = workload->flows_completed();
  phase("world.telemetry_finish", [&] { (void)tele->finish(); });
  phase("world.teardown", [&] {
    sampler.reset();
    workload.reset();
    topo.reset();
    tele.reset();
    sim.reset();
  });
  c.wall_s = seconds_since(t0);
  return c;
}

/// The workload's representative world(s): the configuration of one run of
/// its sweep at the point that dominates its cost.
WorldCounts reference_world(Workload w, std::uint64_t seed, telemetry::EngineProfiler* profiler,
                            Phases& phase) {
  switch (w) {
    case Workload::kFig7: {
      experiment::LongFlowExperimentConfig cfg;  // fig7's n = 300 point at the sqrt-rule buffer
      cfg.num_flows = 300;
      cfg.buffer_packets = 90;
      cfg.warmup = sim::SimTime::seconds(1);
      cfg.measure = sim::SimTime::seconds(1);
      cfg.seed = seed;
      return assembled_world(cfg, profiler, phase);
    }
    case Workload::kFig8: {
      experiment::ShortFlowExperimentConfig cfg;  // the 200 Mb/s baseline run
      cfg.bottleneck_rate = core::BitsPerSec{200e6};
      cfg.buffer_packets = 4000;
      cfg.warmup = sim::SimTime::seconds(1);
      cfg.measure = sim::SimTime::milliseconds(2500);
      cfg.seed = seed;
      return assembled_world(cfg, profiler, phase);
    }
    case Workload::kCcaMatrix: {
      WorldCounts sum;  // every flavor at n = 40 and its sqrt-rule buffer
      for (const auto flavor : kMatrixFlavors) {
        experiment::LongFlowExperimentConfig cfg;
        cfg.num_flows = 40;
        cfg.bottleneck_rate = core::BitsPerSec{50e6};
        cfg.buffer_packets = 77;
        cfg.warmup = sim::SimTime::seconds(4);
        cfg.measure = sim::SimTime::seconds(6);
        cfg.seed = seed;
        experiment::apply_cca_profile(cfg, flavor, cfg.buffer_packets);
        sum.add(assembled_world(cfg, profiler, phase));
      }
      return sum;
    }
  }
  return {};
}

// --- Main -------------------------------------------------------------------

struct Args {
  std::optional<Workload> workload;
  std::uint64_t seed{1};
  int threads{1};
  std::string answers_out;
  std::string trace_out;
  MicroResults micro;
  bool list_metrics{false};
  bool list_micro{false};
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--threads N] [--micro BENCHMARK=NS ...]\n"
               "          [--answers-out FILE] [--trace-out FILE]\n"
               "       %s --list-metrics\n"
               "       %s --list-micro [--threads N]\n",
               argv0, argv0, argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list-metrics") == 0) {
      a.list_metrics = true;
      continue;
    }
    if (std::strcmp(arg, "--list-micro") == 0) {
      a.list_micro = true;
      continue;
    }
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (std::strcmp(arg, "--workload") == 0) {
      a.workload = perfbench::parse_workload(value);
      if (!a.workload) usage(argv[0]);
    } else if (std::strcmp(arg, "--seed") == 0) {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--threads") == 0) {
      a.threads = std::atoi(value);
    } else if (std::strcmp(arg, "--micro") == 0) {
      if (!a.micro.add(value)) usage(argv[0]);
    } else if (std::strcmp(arg, "--answers-out") == 0) {
      a.answers_out = value;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      a.trace_out = value;
    } else {
      usage(argv[0]);
    }
  }
  if (a.threads < 1) usage(argv[0]);
  if (!a.list_metrics && !a.list_micro && !a.workload) usage(argv[0]);
  return a;
}

bool write_file(const std::string& path, const std::string& text) {
  if (path.empty()) return true;
  std::ofstream out{path, std::ios::binary};
  out << text;
  return static_cast<bool>(out);
}

/// Nearest-rank value of the highest percentile that leaves at least ten
/// samples above it (the maximum when there are ten or fewer); `pct` gets
/// the percentile.
double tail_value(std::vector<double> v, double& pct) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    pct = 100.0;
    return v.empty() ? 0.0 : v.back();
  }
  const std::size_t rank = n - 10;  // 1-based nearest rank with n - rank = 10 above
  pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return v[rank - 1];
}

int measure(const Args& args) {
  const Workload w = *args.workload;
  for (const MicroBench& b : micro_benches(args.threads)) (void)args.micro.per_op_ns(b);
  Report report;
  SpanRecorder spans{Clock::now()};

  // Replay: untraced and traced batches in turn, alternating which goes
  // first; every batch must give the first batch's answers. The spans of the
  // last traced batch are the ones reported.
  std::vector<double> untraced_s;
  std::vector<double> untraced_cpu_s;
  std::vector<double> traced_s;
  double replay_wall = 0;
  std::string answers;
  bool answers_match = true;
  for (int batch = 0; batch < 6; ++batch) {
    // Pairs of one untraced and one traced batch; every other pair starts
    // with the traced one.
    const bool traced = (batch % 2 == 0) == (batch / 2 % 2 == 1);
    perfbench::SweepOptions options{args.seed, args.threads};
    if (traced) {
      spans.clear_sweep();
      options.runs = &spans;
      options.points = spans.observer();
    }
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const std::string a = perfbench::run_sweep(w, options);
    const double wall = seconds_since(t0);
    if (traced) {
      traced_s.push_back(wall);
      replay_wall = wall;
    } else {
      untraced_s.push_back(wall);
      untraced_cpu_s.push_back(process_cpu_s() - cpu0);
    }
    if (batch == 0) answers = a;
    answers_match = answers_match && a == answers;
  }
  const std::vector<Span> points = spans.take("point");
  const std::vector<Span> runs = spans.take("run");
  std::vector<double> run_ms;
  for (const Span& s : runs) run_ms.push_back(s.ms());
  double busy_ms = 0;
  double longest_point_ms = 0;
  for (const Span& s : points) {
    busy_ms += s.ms();
    longest_point_ms = std::max(longest_point_ms, s.ms());
  }
  double tail_pct = 0;
  report.set("experiment.runs", static_cast<double>(runs.size()));
  report.set("experiment.run_ms_p50", median(run_ms));
  report.set("experiment.run_ms_tail", tail_value(run_ms, tail_pct));
  report.set("experiment.worker_busy_frac", busy_ms / 1e3 / (args.threads * replay_wall));
  report.set("experiment.critical_path_s", longest_point_ms / 1e3);
  report.set("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0);
  std::printf("info experiment.run_ms_tail is p%.1f of %zu runs\n", tail_pct, runs.size());

  // Set-up: the world behind setup_s, assembled at zero horizon again and
  // again for half a second. Each build is split into its Dumbbell phase
  // (net.build_us) and the rest (experiment.setup_ms), both timed inside
  // the same build; medians over the builds.
  std::vector<double> build_s;
  std::vector<double> rest_s;
  const perfbench::WorldConfig setup_cfg = perfbench::setup_world(w, args.seed);
  for (const auto start = Clock::now(); build_s.size() < 5 || seconds_since(start) < 0.5;) {
    Phases phase{nullptr, 0};
    const WorldCounts c = std::visit(
        [&](const auto& cfg) { return assembled_world(cfg, nullptr, phase); }, setup_cfg);
    build_s.push_back(phase.seconds("world.Dumbbell"));
    rest_s.push_back(c.wall_s - build_s.back());
  }
  const double setup_call_s = median(build_s) + median(rest_s);
  report.set("net.build_us", 1e6 * median(build_s));
  report.set("experiment.setup_ms", 1e3 * median(rest_s));

  // Reference world: three untraced runs, then one profiled run.
  std::vector<double> world_s;
  WorldCounts counts;
  for (std::size_t rep = 0; rep < 3; ++rep) {
    Phases phase{&spans, rep};
    counts = reference_world(w, args.seed, nullptr, phase);
    world_s.push_back(counts.wall_s);
  }
  telemetry::EngineProfiler profiler;
  Phases profiled_phase{&spans, 3};
  const WorldCounts profiled = reference_world(w, args.seed, &profiler, profiled_phase);
  const double world_wall = median(world_s);
  const double pkts = static_cast<double>(counts.packets);
  const bool counts_repeat = profiled.packets == counts.packets && profiled.events == counts.events;

  report.set("sim.events_per_pkt", static_cast<double>(counts.events) / pkts);
  for (const auto cls : kLedgerClasses) {
    const std::string name = sim::event_class_name(cls);
    report.set("sim.events_per_pkt." + name, static_cast<double>(profiler.fire_count(cls)) / pkts);
    report.set("sim.callback_ns." + name,
               profiler.fire_count(cls) > 0 ? profiler.duration_hist(cls).mean() : 0.0);
  }
  report.set("sim.event_ns", world_wall * 1e9 / static_cast<double>(counts.events));
  report.set("sim.pool_slots", static_cast<double>(counts.pool_slots));
  report.set("net.loss_rate",
             counts.offered > 0 ? static_cast<double>(counts.drops) / static_cast<double>(counts.offered)
                                : 0.0);
  report.set("tcp.acks_per_pkt", static_cast<double>(counts.acks) / pkts);
  report.set("tcp.retransmits_per_pkt", static_cast<double>(counts.retransmits) / pkts);
  report.set("tcp.timeouts", static_cast<double>(counts.timeouts));
  report.set("traffic.flows_completed", static_cast<double>(counts.flows_completed));
  report.set("trace.profiler_overhead_frac", profiled.wall_s / world_wall - 1.0);

  // Operations timed here, then those micro_engine timed.
  const double hop = link_hop_ns();
  const double red_ns = red_queue_ns();
  const double src_ack = source_ack_ns();
  const double sink_ack = sink_ack_ns();
  const MicroBench fire_bench = schedule_fire_bench(std::max<std::uint64_t>(1, counts.pending_peak));
  const double fire = args.micro.per_op_ns(fire_bench);
  const double droptail_ns = args.micro.per_op_ns(kDropTailBench);
  std::map<tcp::TcpFlavor, double> cca_ns;
  for (const auto flavor : kMatrixFlavors) {
    cca_ns[flavor] = args.micro.per_op_ns(cca_step_bench(flavor));
    report.set(std::string{"tcp.cca_step_ns."} + tcp::flavor_name(flavor), cca_ns[flavor]);
  }
  const double dispatch_us = args.micro.per_op_ns(dispatch_bench(args.threads)) / 1e3;
  std::printf("info sim.schedule_fire_ns is %s (reference world's pending peak %llu)\n",
              fire_bench.name.c_str(), static_cast<unsigned long long>(counts.pending_peak));
  report.set("sim.schedule_fire_ns", fire);
  report.set("sim.schedule_cancel_ns", args.micro.per_op_ns(kScheduleCancelBench));
  report.set("net.link_hop_ns", hop);
  report.set("net.queue_ns.droptail", droptail_ns);
  report.set("net.queue_ns.red", red_ns);
  report.set("tcp.source_ack_ns", src_ack);
  report.set("tcp.sink_ack_ns", sink_ack);
  report.set("telemetry.sketch_record_ns", args.micro.per_op_ns(kSketchBench));
  report.set("experiment.dispatch_us", dispatch_us);

  // Ledger, per delivered bottleneck packet. link_hop covers both of a
  // hop's events and its queue operations; source_ack covers the CCA step,
  // the timer re-arm and the released segment's hand-off to the host;
  // sink_ack covers the ACK's hand-off. Every other event is one
  // schedule+fire. RED hops and non-NewReno ACKs add their difference from
  // the drop-tail and NewReno operations the hop and ACK timings use.
  const double hops = static_cast<double>(profiler.fire_count(sim::EventClass::kLinkTx)) / pkts;
  const double link_events = static_cast<double>(profiler.fire_count(sim::EventClass::kLinkTx) +
                                                 profiler.fire_count(sim::EventClass::kLinkPropagation));
  const double other_events = (static_cast<double>(profiled.events) - link_events) / pkts;
  double cca_extra = 0;
  for (const auto& [flavor, acks] : counts.acks_by_flavor) {
    const auto it = cca_ns.find(flavor);
    if (it != cca_ns.end()) {
      cca_extra += static_cast<double>(acks) / pkts * (it->second - cca_ns[tcp::TcpFlavor::kNewReno]);
    }
  }
  const double predicted = hops * hop + static_cast<double>(counts.acks) / pkts * src_ack +
                           1.0 * sink_ack + other_events * fire +
                           static_cast<double>(counts.red_packets) / pkts * (red_ns - droptail_ns) +
                           cca_extra;
  const double measured = world_wall * 1e9 / pkts;
  report.set("ledger.pkt_ns", measured);
  report.set("ledger.pkt_ns_predicted", predicted);
  report.set("ledger.unexplained_frac", 1.0 - predicted / measured);

  // How much of an untraced batch set-up and sweep dispatch can account for.
  // The set-up call builds the workload's largest world, so its share is an
  // upper bound where every run has its own span (all but fig8, whose AFCT
  // bisection is one span).
  const double batch_cpu = median(untraced_cpu_s);
  const double batch_wall = median(untraced_s);
  std::printf("info set-up share of batch CPU = %.3g (%zu run spans x %.4f ms / %.3f s)\n",
              static_cast<double>(runs.size()) * setup_call_s / batch_cpu, runs.size(),
              1e3 * setup_call_s, batch_cpu);
  std::printf("info dispatch share of batch wall = %.3g (%zu points / 64 x %.2f us / %.3f s)\n",
              static_cast<double>(points.size()) / 64.0 * dispatch_us * 1e-6 / batch_wall,
              points.size(), dispatch_us, batch_wall);

  const bool complete = report.print();
  const bool written = write_file(args.answers_out, answers) &&
                       write_file(args.trace_out, spans.chrome_json());
  if (!answers_match) std::fprintf(stderr, "perf_layers: traced replay answers differ\n");
  if (!counts_repeat) std::fprintf(stderr, "perf_layers: reference world did not repeat\n");
  if (!written) std::fprintf(stderr, "perf_layers: could not write outputs\n");
  return complete && answers_match && counts_repeat && written ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.list_metrics) {
    for (const MetricSpec& m : metric_table()) {
      std::printf("%s %s\n", m.name.c_str(), m.unit.c_str());
    }
    return 0;
  }
  if (args.list_micro) {
    for (const MicroBench& b : micro_benches(args.threads)) std::printf("%s\n", b.name.c_str());
    return 0;
  }
  try {
    return measure(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_layers: %s\n", e.what());
    return 1;
  }
}
