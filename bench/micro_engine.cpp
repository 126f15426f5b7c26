// Engine microbenchmarks (google-benchmark): event scheduling, cancel and
// reap throughput, steady-state schedule->fire, parallel sweep dispatch,
// end-to-end simulated-seconds-per-wall-second for a reference dumbbell, the
// cost of building and tearing one down, and a host's per-delivery flow
// lookup.
//
// Emit machine-readable numbers with --benchmark_format=json; the repo's
// BENCH_engine.json tracks these results across engine changes.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "experiment/long_flow_experiment.hpp"
#include "experiment/sweep.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "tcp/congestion_control.hpp"
#include "telemetry/sketch.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace rbs;

/// Root seed for every RNG a microbenchmark draws from. rbs-analyze rule R4
/// requires Rngs outside tests/ to fork from a named stream of a named seed
/// rather than being literal-seeded in place.
constexpr std::uint64_t kBenchSeed = 1;
constexpr std::uint64_t kRngBenchStream = 0xBE4C;

/// Minor page faults this process has taken so far.
long minor_page_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    sim::Simulation sim;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.after(sim::SimTime::nanoseconds(i % 1000), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.scheduler().executed_events());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_SchedulerSteadyState(benchmark::State& state) {
  // The simulator's true hot path: a standing population of N events where
  // every fired event schedules its successor (packet arrivals, ACK clocks).
  const auto n = state.range(0);
  sim::Simulation sim;
  sim::Scheduler& sched = sim.scheduler();
  std::uint64_t fired = 0;
  struct Reschedule {
    sim::Scheduler* sched;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      sched->schedule_after(sim::SimTime::nanoseconds(500 + (*fired % 97)), *this);
    }
  };
  for (std::int64_t i = 0; i < n; ++i) {
    sched.schedule_after(sim::SimTime::nanoseconds(i % 97), Reschedule{&sched, &fired});
  }
  for (auto _ : state) {
    const auto target = sched.executed_events() + 10'000;
    while (sched.executed_events() < target) {
      sim.run_until(sim.now() + sim::SimTime::microseconds(1));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_SchedulerSteadyState)->Arg(64)->Arg(4'096);

void backend_steady_state(benchmark::State& state, sim::SchedulerBackend backend) {
  // Same standing-population schedule->fire pattern as BM_SchedulerSteadyState
  // but with an explicit ready-queue backend and a TCP-like horizon mix: most
  // events reschedule a few tens of microseconds out (packet clocks), every
  // tenth jumps 200 ms (retransmission timers), so the wheel backend pays its
  // cascade machinery instead of a single hot bucket.
  const auto n = state.range(0);
  sim::Simulation sim{kBenchSeed, backend};
  sim::Scheduler& sched = sim.scheduler();
  std::uint64_t fired = 0;
  struct Reschedule {
    sim::Scheduler* sched;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      const auto dt = *fired % 10 == 0 ? sim::SimTime::milliseconds(200)
                                       : sim::SimTime::microseconds(10 + *fired % 77);
      sched->schedule_after(dt, *this);
    }
  };
  for (std::int64_t i = 0; i < n; ++i) {
    sched.schedule_after(sim::SimTime::microseconds(i % 97), Reschedule{&sched, &fired});
  }
  for (auto _ : state) {
    const auto target = sched.executed_events() + 10'000;
    while (sched.executed_events() < target) {
      sim.run_until(sim.now() + sim::SimTime::milliseconds(1));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}

void BM_SchedulerBackendHeap(benchmark::State& state) {
  backend_steady_state(state, sim::SchedulerBackend::kHeap);
}
BENCHMARK(BM_SchedulerBackendHeap)->Arg(300)->Arg(4'096);

void BM_SchedulerBackendWheel(benchmark::State& state) {
  backend_steady_state(state, sim::SchedulerBackend::kWheel);
}
BENCHMARK(BM_SchedulerBackendWheel)->Arg(300)->Arg(4'096);

void BM_SchedulerScheduleCancel(benchmark::State& state) {
  // The TCP retransmission-timer pattern: schedule a timer far out, cancel
  // and replace it on every ACK. Exercises cancel + reaping.
  sim::Simulation sim;
  sim::Scheduler& sched = sim.scheduler();
  sim::Scheduler::EventHandle timer;
  std::int64_t t = 0;
  for (auto _ : state) {
    timer.cancel();
    timer = sched.schedule_after(sim::SimTime::milliseconds(200), [] {});
    if (++t % 64 == 0) sim.run_until(sim.now() + sim::SimTime::microseconds(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerScheduleCancel);

void BM_ParallelSweepDispatch(benchmark::State& state) {
  // Dispatch overhead of the sweep runner on trivial points (the per-point
  // work here is ~zero, so this measures pool handoff cost).
  experiment::SweepRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto results = runner.map<std::uint64_t>(64, [](std::size_t i) {
      sim::Rng rng{static_cast<std::uint64_t>(i) + 1};
      return rng.next_u64();
    });
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelSweepDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  net::DropTailQueue q{1024};
  net::Packet p;
  p.size_bytes = 1000;
  for (auto _ : state) {
    q.enqueue(p);
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng = sim::Rng{kBenchSeed}.fork(kRngBenchStream);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void BM_CcaStep(benchmark::State& state) {
  // Per-ACK cost of each congestion-control strategy: the model update
  // (on_ack) plus window growth (on_acked_increase), with a loss event every
  // 8192 ACKs so the reduction/epoch paths stay in the profile. Arg indexes
  // all_flavors(); the label names the flavor. The Reno row is the cost the
  // pre-refactor inlined arithmetic paid; CUBIC adds the cubic-root epoch
  // math, BBR the phase machine (plus, once per round, the max over its
  // 10-slot bandwidth filter), DCTCP the EWMA fold. Every flavor runs its
  // fixed tuning from a default TcpConfig.
  const auto flavor = tcp::all_flavors()[static_cast<std::size_t>(state.range(0))];
  const tcp::TcpConfig cfg;
  tcp::CcHolder cc{flavor, cfg};
  tcp::CcContext ctx;
  ctx.srtt = sim::SimTime::milliseconds(50);
  ctx.min_rtt = ctx.srtt;
  ctx.has_rtt = true;
  std::int64_t una = 0;
  auto now = sim::SimTime::zero();
  for (auto _ : state) {
    now = now + sim::SimTime::microseconds(500);
    ++una;
    ctx.now = now;
    ctx.snd_una = una;
    ctx.snd_nxt = una + 100;
    ctx.in_flight = 100;
    cc->on_ack(ctx, 1, ctx.srtt, 0);
    cc->on_acked_increase(ctx, 1);
    if ((una & 8191) == 0) {
      cc->on_loss_detected(ctx);
      cc->on_recovery_exit(ctx);
    }
    benchmark::DoNotOptimize(cc->cwnd());
  }
  state.SetLabel(tcp::flavor_name(flavor));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CcaStep)->Arg(2)->Arg(3)->Arg(4)->Arg(5);  // newreno cubic bbr dctcp

void BM_DumbbellSimulatedSecond(benchmark::State& state) {
  // How long one simulated second of a loaded 50-flow OC3 dumbbell takes.
  for (auto _ : state) {
    experiment::LongFlowExperimentConfig cfg;
    cfg.num_flows = static_cast<int>(state.range(0));
    cfg.buffer_packets = 100;
    cfg.warmup = sim::SimTime::seconds(1);
    cfg.measure = sim::SimTime::seconds(1);
    benchmark::DoNotOptimize(experiment::run_long_flow_experiment(cfg));
  }
}
BENCHMARK(BM_DumbbellSimulatedSecond)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_DumbbellBuild(benchmark::State& state) {
  // Build and tear down a Simulation plus an N-leaf OC3 dumbbell: the
  // topology every experiment run (and bisection probe) assembles before
  // its workload. Minor page faults per iteration are reported too: a
  // nonzero count means the loop also times glibc handing the heap top back
  // to the OS at teardown and faulting it in again at the next build.
  net::DumbbellConfig cfg;
  cfg.num_leaves = static_cast<int>(state.range(0));
  const long faults_before = minor_page_faults();
  for (auto _ : state) {
    sim::Simulation sim{kBenchSeed};
    net::Dumbbell topo{sim, cfg};
    benchmark::DoNotOptimize(&topo);
  }
  state.counters["minflt_per_iter"] =
      static_cast<double>(minor_page_faults() - faults_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DumbbellBuild)->Arg(50)->Arg(500)->Unit(benchmark::kMicrosecond);

/// An agent that only counts its packets.
class CountingAgent final : public net::Agent {
 public:
  void on_packet(const net::Packet& /*p*/) override { ++packets; }
  std::uint64_t packets{0};
};

void BM_HostDispatch(benchmark::State& state) {
  // One delivery through Host::receive with N agents on the host: the flow
  // lookup plus a trivial agent call. Deliveries cycle over every flow, so
  // with more agents than Host::kInlineAgents most of them search the
  // overflow map, as in a trace replay that puts thousands of flows on one
  // leaf; 1 and 4 stay in the inline slots.
  const auto flows = static_cast<net::FlowId>(state.range(0));
  sim::Simulation sim{kBenchSeed};
  net::Host host{sim, 0, "host"};
  std::vector<CountingAgent> agents(flows);
  for (net::FlowId f = 0; f < flows; ++f) host.register_agent(f + 1, agents[f]);
  net::Packet p;
  net::FlowId next = 0;
  for (auto _ : state) {
    p.flow = next + 1;
    host.receive(p);
    if (++next == flows) next = 0;
  }
  benchmark::DoNotOptimize(agents.front().packets);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostDispatch)->Arg(1)->Arg(4)->Arg(3'000);

void BM_TelemetryOverhead(benchmark::State& state) {
  // Cost of the observability layer on a reference run. Arg selects the
  // level: 0 = telemetry off (the baseline every simulation pays — one null
  // check per would-be event), 1 = metrics sampling at 10 ms cadence,
  // 2 = sampling plus full event tracing into a ring session. The
  // acceptance bar: level 0 within 2% of the pre-telemetry engine baseline
  // (BENCH_engine.json).
  const int level = static_cast<int>(state.range(0));
  telemetry::TraceSession session{256 * 1024};  // ring reused across iterations
  for (auto _ : state) {
    experiment::LongFlowExperimentConfig cfg;
    cfg.num_flows = 10;
    cfg.buffer_packets = 100;
    cfg.warmup = sim::SimTime::seconds(1);
    cfg.measure = sim::SimTime::seconds(1);
    if (level >= 1) {
      cfg.telemetry.metrics = true;
      cfg.telemetry.sample_interval = sim::SimTime::milliseconds(10);
    }
    if (level >= 2) {
      session.clear();
      cfg.telemetry.trace = &session;
    }
    benchmark::DoNotOptimize(experiment::run_long_flow_experiment(cfg));
  }
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_SketchRecord(benchmark::State& state) {
  // Record-path throughput of the DDSketch quantile sketch. Values are
  // drawn once into a table spanning ~5 decades (an FCT-shaped spread, so
  // collapse pressure is realistic) and replayed, so the loop measures
  // bucket indexing rather than RNG cost.
  sim::Rng rng = sim::Rng{kBenchSeed}.fork(kRngBenchStream + 1);
  std::vector<double> values(4096);
  for (auto& v : values) v = std::exp((rng.uniform() - 0.5) * 12.0);
  telemetry::QuantileSketch sketch{telemetry::QuantileSketch::Config{0.01, 2048}};
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.record(values[i++ & 4095]);
  }
  benchmark::DoNotOptimize(sketch.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchRecord);

void BM_FlowStatsOverhead(benchmark::State& state) {
  // Flow-stats rollup cost on the reference dumbbell. Arg 0 keeps telemetry
  // off entirely (the flag-off baseline the "existing outputs byte-identical,
  // overhead <= 0.1%" contract compares against); Arg 1 enables metrics plus
  // per-flow rollups, which adds one FlowObservation harvest per flow at
  // measurement end on top of level-1 sampling.
  const bool flow_stats = state.range(0) != 0;
  for (auto _ : state) {
    experiment::LongFlowExperimentConfig cfg;
    cfg.num_flows = 10;
    cfg.buffer_packets = 100;
    cfg.warmup = sim::SimTime::seconds(1);
    cfg.measure = sim::SimTime::seconds(1);
    if (flow_stats) {
      cfg.telemetry.metrics = true;
      cfg.telemetry.flow_stats = true;
    }
    benchmark::DoNotOptimize(experiment::run_long_flow_experiment(cfg));
  }
}
BENCHMARK(BM_FlowStatsOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
