// rbsim — config-driven buffer-sizing simulator.
//
// Runs one experiment described by key=value pairs (from the command line or
// a config file, one pair per line; '#' comments allowed) and prints a full
// report: utilization, loss, queueing delay percentiles, fairness, AFCT, and
// the model predictions side by side.
//
//   $ ./rbsim mode=long flows=200 rate_mbps=155 buffer=auto
//   $ ./rbsim mode=mixed flows=50 short_load=0.2 buffer=1550 duration=30
//   $ ./rbsim config.txt
//
// Keys (defaults in brackets):
//   mode        long | short | mixed | trace  [long]
//   trace       trace file to replay (mode=trace; see traffic/trace_workload.hpp)
//   rate_mbps   bottleneck rate               [155]
//   flows       long-lived TCP flows          [100]
//   buffer      packets, or "auto" = sqrt rule, or "bdp" [auto];
//               a comma list (e.g. buffer=50,100,bdp) sweeps the points in
//               parallel (modes long/short/mixed) and prints one row each
//   threads     sweep worker threads (0 = RBS_THREADS env, else all cores) [0]
//   backend     wheel | heap | auto  scheduler ready-queue backend [wheel];
//               both structures fire events in bitwise-identical order (the
//               heap is the reference, the timing wheel the fast default),
//               so this only changes engine speed, never results; auto picks
//               per run from the schedule horizon (short-horizon runs whose
//               whole schedule fits one wheel bucket get the heap)
//   duration    measurement seconds           [20]
//   warmup      warm-up seconds               [10]
//   short_load  short-flow offered load       [0.2, mixed/short modes]
//   flow_len    short-flow length in packets  [62]
//   red         0|1 use RED at the bottleneck [0]
//   ecn         0|1 RED marks instead of drops [0]
//   cca         tahoe | reno | newreno | cubic | bbr | dctcp  congestion
//               control for the TCP senders (every mode) [newreno].
//               cca=dctcp additionally switches the bottleneck (long mode)
//               to step-marking RED with threshold K = buffer/2, the
//               operating point DCTCP assumes (experiment::apply_cca_profile)
//   pacing      0|1 paced TCP senders         [0]
//   delack      0|1 delayed ACKs              [0]
//   seed        RNG seed                      [1]
//   flows, threads, seed and flow_len take plain base-10 integers; any other
//               value (1e12, 0.5, nan, -1 for threads/seed) exits 2. Every
//               other numeric key takes a finite number (abc, nan, inf and
//               yes exit 2)
//   paranoia    0|1 run the invariant auditor (also --paranoia): every 50k
//               events every registered subsystem re-verifies its internal
//               state (queue conservation, heap order, TCP sequence bounds)
//               and the run aborts with a report on any violation [0]
//   --faults FILE  (or faults=FILE) arm a fault schedule against the
//               topology: link outages/flaps, rate brown-outs, delay
//               surges, loss bursts, queue freezes. One directive per
//               line; see docs/faults.md for the format. Applies to every
//               mode (and to every point of a buffer sweep).
//
// Telemetry (see docs/observability.md):
//   --metrics PATH        (or metrics=PATH) collect the metrics registry and
//                         the sampled time series; writes a JSON document
//                         {"snapshot":…,"series":…} to PATH plus a sibling
//                         PATH.series.csv. A buffer sweep writes per-point
//                         artifacts PATH.point<N>.{json,csv,gp} instead.
//   --trace PATH          (or trace_out=PATH) record packet/TCP/queue events
//                         and write Chrome trace_event JSON to PATH (open in
//                         Perfetto / chrome://tracing). Single-point runs
//                         only — a parallel sweep would interleave sessions.
//   --sample-interval S   (or sample_interval=S) series cadence, seconds [0.1]
//   --profile             (or profile=1) attach the scheduler profiler and
//                         print per-event-class timing; sweeps additionally
//                         get a live progress line and per-worker
//                         utilization
//   --flow-stats          (or flow_stats=1) collect per-flow rollups: FCT /
//                         goodput / retransmit / peak-cwnd sketches plus the
//                         "who hogs the bottleneck" top-K table. Printed as
//                         a table and, with --metrics, embedded in the JSON
//                         document under "flow_stats". Off by default; when
//                         off, every output byte matches a build without the
//                         feature. Rejected (exit 2) in mode=trace.
//   --post-mortem PATH    (or post_mortem=PATH) arm the flight recorder: on
//                         an invariant-auditor violation or uncaught
//                         exception, dump recent trace events, a metrics
//                         snapshot, and live queue/scheduler state as
//                         deterministic JSON to PATH (single-point runs)
//
// A key not listed here, or a pair that is not key=value (such as "=5"),
// prints one diagnostic and exits 2, on the command line and in a config
// file alike, so a typo never silently runs the defaults.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/recommendation.hpp"
#include "core/sizing_rules.hpp"
#include "experiment/cca_matrix.hpp"
#include "experiment/cli.hpp"
#include "experiment/long_flow_experiment.hpp"
#include "experiment/mixed_flow_experiment.hpp"
#include "experiment/reporting.hpp"
#include "experiment/short_flow_experiment.hpp"
#include "experiment/sweep.hpp"
#include "experiment/dumbbell_run.hpp"
#include "fault/fault_schedule.hpp"
#include "telemetry/sweep_profile.hpp"
#include "telemetry/trace.hpp"
#include "traffic/trace_workload.hpp"

namespace {

using KeyValues = std::map<std::string, std::string>;

/// Every key the header above documents; flags such as --metrics map onto
/// these too.
const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys{
      "backend", "buffer", "cca", "delack", "duration", "ecn", "faults", "flow_len",
      "flow_stats", "flows", "metrics", "mode", "pacing", "paranoia", "post_mortem",
      "profile", "rate_mbps", "red", "sample_interval", "seed", "short_load", "threads",
      "trace", "trace_out", "warmup"};
  return keys;
}

/// Stores one key=value pair. A token that is not key=value, or names a key
/// rbsim does not know (a typo would otherwise silently run the default),
/// throws, which rbsim reports as one diagnostic line and exit code 2.
void parse_pair(const std::string& token, KeyValues& out) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("malformed option '" + token + "' (want key=value)");
  }
  std::string key = token.substr(0, eq);
  if (known_keys().count(key) == 0) {
    throw std::invalid_argument("unknown key '" + key +
                                "' (see the header of examples/rbsim.cpp for the key list)");
  }
  out[std::move(key)] = token.substr(eq + 1);
}

bool load_config_file(const std::string& path, KeyValues& out) {
  std::ifstream in{path};
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens{line};
    std::string token;
    while (tokens >> token) parse_pair(token, out);
  }
  return true;
}

/// Number key; a value that is not wholly a finite number throws, which
/// rbsim reports as one diagnostic line and exit code 2.
double get_num(const KeyValues& kv, const std::string& key, double fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  double v = 0.0;
  if (!rbs::experiment::parse_double(it->second, v)) {
    throw std::invalid_argument("bad " + key + " '" + it->second + "' (want a finite number)");
  }
  return v;
}

/// Integer key in [lo, hi]; any other value throws, which rbsim reports as
/// one diagnostic line and exit code 2.
long long get_int(const KeyValues& kv, const std::string& key, long long fallback, long long lo,
                  long long hi) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  long long v = 0;
  if (!rbs::experiment::parse_int(it->second, v)) {
    throw std::invalid_argument("bad " + key + " '" + it->second + "' (want an integer)");
  }
  if (v < lo || v > hi) {
    throw std::invalid_argument("bad " + key + " '" + it->second + "' (want an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "])");
  }
  return v;
}

std::string get_str(const KeyValues& kv, const std::string& key, const std::string& fallback) {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : it->second;
}

int run_rbsim(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_rbsim(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Hostile inputs: malformed fault schedules, empty workloads,
    // non-positive windows.
    std::fprintf(stderr, "rbsim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // Invariant-auditor reports (and any other fatal error) land here.
    std::fprintf(stderr, "rbsim: fatal: %s\n", e.what());
    return 1;
  }
}

namespace {

int run_rbsim(int argc, char** argv) {
  using namespace rbs;

  KeyValues kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: rbsim [--paranoia] [--profile] [--metrics PATH] [--trace PATH]\n"
                  "             [--sample-interval SEC] [--faults FILE] [--flow-stats]\n"
                  "             [--post-mortem PATH] [key=value ...] [config-file]\n"
                  "keys include mode=long|short|mixed|trace, buffer=N|auto|bdp[,..],\n"
                  "cca=tahoe|reno|newreno|cubic|bbr|dctcp (sender congestion control),\n"
                  "backend=wheel|heap|auto (scheduler ready-queue; identical results,\n"
                  "different speed), threads=N, seed=N\n"
                  "see the header of examples/rbsim.cpp for the full key list\n");
      return 0;
    }
    if (arg == "--paranoia") {
      kv["paranoia"] = "1";
      continue;
    }
    if (arg == "--profile") {
      kv["profile"] = "1";
      continue;
    }
    if (arg == "--flow-stats") {
      kv["flow_stats"] = "1";
      continue;
    }
    // Flags taking a value in the following argv slot. "--trace" maps to the
    // kv key "trace_out" because plain "trace" already names the replay
    // input file of mode=trace.
    if (arg == "--metrics" || arg == "--trace" || arg == "--sample-interval" ||
        arg == "--faults" || arg == "--post-mortem") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rbsim: %s needs a value\n", arg.c_str());
        return 2;
      }
      const char* key = arg == "--metrics"           ? "metrics"
                        : arg == "--trace"           ? "trace_out"
                        : arg == "--sample-interval" ? "sample_interval"
                        : arg == "--post-mortem"     ? "post_mortem"
                                                     : "faults";
      kv[key] = argv[++i];
      continue;
    }
    if (arg.find('=') == std::string::npos) {
      if (!load_config_file(arg, kv)) {
        std::fprintf(stderr, "rbsim: cannot read config file '%s'\n", arg.c_str());
        return 2;
      }
    } else {
      parse_pair(arg, kv);
    }
  }

  const std::string mode = get_str(kv, "mode", "long");
  const double rate_bps = get_num(kv, "rate_mbps", 155.0) * 1e6;
  constexpr long long kIntMin = std::numeric_limits<int>::min();
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  constexpr long long kLongMin = std::numeric_limits<long long>::min();
  constexpr long long kLongMax = std::numeric_limits<long long>::max();
  const int flows = static_cast<int>(get_int(kv, "flows", 100, kIntMin, kIntMax));
  const double duration = get_num(kv, "duration", 20.0);
  const double warmup = get_num(kv, "warmup", 10.0);
  const double rtt_sec = 0.080;  // topology default

  const auto sqrt_rule = core::sqrt_rule_packets(rtt_sec, rate_bps, std::max(flows, 1), 1000);
  const auto bdp = core::rule_of_thumb_packets(rtt_sec, rate_bps, 1000);

  // `buffer` may be a comma-separated list; more than one entry turns the
  // run into a parallel sweep over buffer sizes.
  std::vector<std::int64_t> buffers;
  {
    std::istringstream list{get_str(kv, "buffer", "auto")};
    std::string item;
    while (std::getline(list, item, ',')) {
      if (item.empty()) continue;
      if (item == "auto") {
        buffers.push_back(sqrt_rule);
      } else if (item == "bdp") {
        buffers.push_back(bdp);
      } else {
        long long v = 0;
        if (!experiment::parse_int(item, v) || v <= 0) {
          std::fprintf(stderr, "rbsim: bad buffer entry '%s' (want a positive packet count, "
                               "'auto', or 'bdp')\n", item.c_str());
          return 2;
        }
        buffers.push_back(v);
      }
    }
    if (buffers.empty()) buffers.push_back(sqrt_rule);
  }
  const std::int64_t buffer = buffers.front();
  const bool sweeping = buffers.size() > 1;
  const int threads = static_cast<int>(get_int(kv, "threads", 0, 0, kIntMax));

  // Run-level controls shared by every mode (and every sweep point).
  experiment::RunControls controls;
  controls.seed = static_cast<std::uint64_t>(get_int(kv, "seed", 1, 0, kLongMax));

  // Scheduler ready-queue backend. Both fire bitwise-identically; the wheel
  // is the fast default and the heap the reference structure.
  const std::string backend_str = get_str(kv, "backend", "wheel");
  if (backend_str == "heap") {
    controls.scheduler_backend = sim::SchedulerBackend::kHeap;
  } else if (backend_str == "auto") {
    controls.scheduler_backend = sim::SchedulerBackend::kAuto;
  } else if (backend_str != "wheel") {
    std::fprintf(stderr, "rbsim: unknown backend '%s' (want wheel, heap, or auto)\n",
                 backend_str.c_str());
    return 2;
  }
  const bool paranoia = get_num(kv, "paranoia", 0) > 0;
  controls.checked = paranoia;
  if (paranoia) std::printf("rbsim: paranoia mode on — invariant auditor attached\n");

  // Congestion-control flavor for the TCP senders (every mode).
  std::optional<tcp::TcpFlavor> cca;
  const std::string cca_str = get_str(kv, "cca", "");
  if (!cca_str.empty()) {
    cca = tcp::flavor_from_name(cca_str);
    if (!cca) {
      std::fprintf(stderr, "rbsim: unknown cca '%s' (want tahoe, reno, newreno, cubic, bbr, or dctcp)\n",
                   cca_str.c_str());
      return 2;
    }
  }

  // Fault schedule, applied identically to every mode (and every sweep
  // point). Parse errors are fatal and name the offending line.
  const std::string faults_path = get_str(kv, "faults", "");
  if (!faults_path.empty()) {
    controls.faults = fault::FaultSchedule::parse_file(faults_path);
    std::printf("rbsim: fault schedule '%s' armed — %zu events, horizon %.1f s\n",
                faults_path.c_str(), controls.faults.size(),
                controls.faults.horizon().to_seconds());
  }
  // The fault-loss report line of a single-point run, label padded to the
  // mode's column; printed only when a schedule was armed.
  const auto print_fault_drops = [&controls](int label_width, std::uint64_t drops) {
    if (controls.faults.empty()) return;
    std::printf("%-*s: %llu packets lost to injected faults\n", label_width, "faults",
                static_cast<unsigned long long>(drops));
  };

  // Telemetry configuration shared by every mode. The trace session is a
  // single shared ring buffer, so it only attaches to single-point runs; a
  // parallel sweep's concurrent simulations each get their own registry and
  // series instead (written out per point below).
  const std::string metrics_path = get_str(kv, "metrics", "");
  const std::string trace_path = get_str(kv, "trace_out", "");
  const bool profile = get_num(kv, "profile", 0) > 0;
  experiment::TelemetryConfig& tele_cfg = controls.telemetry;
  tele_cfg.metrics = !metrics_path.empty();
  tele_cfg.sample_interval = sim::SimTime::from_seconds(get_num(kv, "sample_interval", 0.1));
  tele_cfg.profile = profile;
  tele_cfg.flow_stats = get_num(kv, "flow_stats", 0) > 0;
  // The flight recorder writes one post-mortem file, so a sweep's concurrent
  // points would race on it; single-point runs only, like --trace.
  const std::string post_mortem_path = get_str(kv, "post_mortem", "");
  if (!post_mortem_path.empty()) {
    if (sweeping) {
      std::fprintf(stderr,
                   "rbsim: --post-mortem applies to single-point runs; ignored for sweeps\n");
    } else {
      tele_cfg.flight_recorder_path = post_mortem_path;
    }
  }
  std::unique_ptr<telemetry::TraceSession> trace_session;
  if (!trace_path.empty()) {
    if (sweeping) {
      std::fprintf(stderr, "rbsim: --trace applies to single-point runs; ignored for sweeps\n");
    } else {
      trace_session = std::make_unique<telemetry::TraceSession>();
      tele_cfg.trace = trace_session.get();
    }
  }

  // Prints the per-flow rollup: headline counters, FCT/goodput quantiles,
  // and the heavy-hitter table. No-op unless --flow-stats collected one.
  const auto print_flow_stats = [](const experiment::TelemetryResult& t) {
    if (!t.flow_stats_collected) return;
    const auto& fs = t.flow_stats;
    std::printf("flow stats   : %llu flows (%llu completed), %llu rtx, %llu ECN marks\n",
                static_cast<unsigned long long>(fs.flows()),
                static_cast<unsigned long long>(fs.flows_completed()),
                static_cast<unsigned long long>(fs.total_retransmits()),
                static_cast<unsigned long long>(fs.total_ecn_marks()));
    if (fs.flows_completed() > 0) {
      std::printf("  fct        : p50 %.4f s, p99 %.4f s\n", fs.fct().quantile(0.50),
                  fs.fct().quantile(0.99));
    }
    if (fs.flows() > 0) {
      std::printf("  goodput    : p50 %.3f Mb/s   peak cwnd: p99 %.1f pkts\n",
                  fs.goodput().quantile(0.50) / 1e6, fs.peak_cwnd().quantile(0.99));
    }
    const auto hogs = fs.hogs().top(5);
    for (const auto& h : hogs) {
      std::printf("  hog flow %-8llu %10.3f MB acked (overcount <= %.3f MB)\n",
                  static_cast<unsigned long long>(h.key),
                  static_cast<double>(h.weight) / 1e6, static_cast<double>(h.error) / 1e6);
    }
  };

  // Serializes one run's metrics document. --flow-stats appends its rollup
  // as a third top-level key, so documents without it are byte-identical to
  // pre-flow-stats builds.
  const auto metrics_doc = [](const experiment::TelemetryResult& t) {
    std::string doc = "{\"snapshot\":" + t.snapshot.to_json() +
                      ",\"series\":" + t.series.to_json();
    if (t.flow_stats_collected) doc += ",\"flow_stats\":" + t.flow_stats.to_json();
    doc += "}\n";
    return doc;
  };

  // Writes the metrics/trace artifacts of a single-point run and prints the
  // profiler summary, all no-ops for whatever was not requested.
  const auto emit_telemetry = [&](const experiment::TelemetryResult& t) {
    if (!t.profile_summary.empty()) std::printf("\n%s", t.profile_summary.c_str());
    print_flow_stats(t);
    if (t.collected && !metrics_path.empty()) {
      if (experiment::write_file(metrics_path, metrics_doc(t)) &&
          experiment::write_file(metrics_path + ".series.csv", t.series.to_csv())) {
        std::printf("metrics      : %s (series: %s.series.csv)\n", metrics_path.c_str(),
                    metrics_path.c_str());
      }
    }
    if (trace_session && trace_session->write_chrome_json(trace_path)) {
      std::printf("trace        : %s (%zu events; open in Perfetto)\n", trace_path.c_str(),
                  trace_session->events().size());
    }
  };

  // Buffer sweep: every point is an independent simulation, run across the
  // worker pool; rows print in list order, bitwise identical to a serial
  // (threads=1) run. `run_point(i)` runs point i; `cells(result)` renders
  // the columns after the buffer column.
  const auto sweep = [&](std::vector<std::string> header, auto run_point, auto cells) {
    experiment::SweepRunner runner{threads, paranoia};
    telemetry::SweepProfile sweep_prof{buffers.size(), profile};
    if (profile) {
      runner.set_observer(
          {[&](std::size_t i, int w) { sweep_prof.point_start(i, w); },
           [&](std::size_t i, int w) { sweep_prof.point_done(i, w); }});
    }
    using Result = decltype(run_point(std::size_t{0}));
    const auto results = runner.map<Result>(buffers.size(), run_point);
    experiment::TablePrinter table{std::move(header)};
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      std::vector<std::string> row = cells(results[i]);
      row.insert(row.begin(), experiment::format("%lld", static_cast<long long>(buffers[i])));
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());

    if (profile) {
      std::printf("\n%s", sweep_prof.summary().c_str());
    }
    // Per-point telemetry artifacts: each sweep point owns its Simulation
    // (and thus its registry/series), so --metrics out.json yields
    // out.json.point<N>.json plus a plottable out.point<N>.{csv,gp} pair.
    if (metrics_path.empty()) return 0;
    const std::filesystem::path mp{metrics_path};
    const std::string dir = mp.has_parent_path() ? mp.parent_path().string() : std::string{"."};
    const std::string stem = mp.stem().string();
    bool ok = true;
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      const experiment::TelemetryResult& t = results[i].telemetry;
      if (!t.collected) continue;
      const std::string tag = ".point" + std::to_string(i);
      ok = experiment::write_file(metrics_path + tag + ".json", metrics_doc(t)) &&
           experiment::write_series_artifacts(
               dir, stem + tag,
               "buffer=" + std::to_string(static_cast<long long>(buffers[i])) + " pkts",
               t.series) &&
           ok;
    }
    if (ok) {
      std::printf("per-point telemetry: %s.point<N>.json (+ %s/%s.point<N>.{csv,gp})\n",
                  metrics_path.c_str(), dir.c_str(), stem.c_str());
    }
    return 0;
  };

  std::printf("rbsim: mode=%s rate=%.0f Mb/s flows=%d buffer=%lld pkts "
              "(sqrt rule %lld, RTT*C %lld)\n\n",
              mode.c_str(), rate_bps / 1e6, flows, static_cast<long long>(buffer),
              static_cast<long long>(sqrt_rule), static_cast<long long>(bdp));

  // Each mode builds its config once; a sweep and a single-point run share it.
  if (mode == "long") {
    experiment::LongFlowExperimentConfig cfg{controls};
    cfg.num_flows = flows;
    cfg.bottleneck_rate = core::BitsPerSec{rate_bps};
    cfg.warmup = sim::SimTime::from_seconds(warmup);
    cfg.measure = sim::SimTime::from_seconds(duration);
    cfg.record_delays = true;
    if (get_num(kv, "red", 0) > 0) cfg.discipline = net::QueueDiscipline::kRed;
    if (get_num(kv, "ecn", 0) > 0) {
      cfg.discipline = net::QueueDiscipline::kRed;
      cfg.red.ecn_marking = true;
    }
    cfg.tcp.pacing = get_num(kv, "pacing", 0) > 0;
    cfg.sink.delayed_ack = get_num(kv, "delack", 0) > 0;

    if (sweeping) {
      return sweep(
          {"buffer (pkts)", "utilization", "loss", "mean queue", "p99 delay (ms)", "fairness"},
          [&](std::size_t i) {
            auto point = cfg;
            point.buffer_packets = buffers[i];
            // Per point, not once: DCTCP's marking threshold tracks the buffer.
            if (cca) experiment::apply_cca_profile(point, *cca, buffers[i]);
            return run_long_flow_experiment(point);
          },
          [](const experiment::LongFlowExperimentResult& r) -> std::vector<std::string> {
            return {experiment::format("%.2f%%", 100 * r.utilization),
                    experiment::format("%.3f%%", 100 * r.loss_rate),
                    experiment::format("%.1f", r.mean_queue_packets),
                    experiment::format("%.2f", 1e3 * r.delay_p99_sec),
                    experiment::format("%.3f", r.fairness)};
          });
    }
    cfg.buffer_packets = buffer;
    if (cca) experiment::apply_cca_profile(cfg, *cca, buffer);
    const auto r = run_long_flow_experiment(cfg);
    const core::LongFlowLink model{rate_bps, rtt_sec, flows, 1000};
    std::printf("utilization     : %.2f%%   (model predicts %.2f%%)\n",
                100 * r.utilization,
                100 * core::predicted_utilization(model, buffer));
    std::printf("loss rate       : %.3f%%  (model ~ %.3f%%)\n", 100 * r.loss_rate,
                100 * core::predicted_loss_rate(model, buffer));
    std::printf("queue occupancy : %.1f pkts mean (limit %lld)\n", r.mean_queue_packets,
                static_cast<long long>(buffer));
    std::printf("queue delay     : %.2f ms mean, %.2f ms p99\n", 1e3 * r.delay_mean_sec,
                1e3 * r.delay_p99_sec);
    std::printf("fairness (Jain) : %.3f over %d flows\n", r.fairness, flows);
    std::printf("tcp             : %llu timeouts, %llu fast retransmits, %llu ECN cuts\n",
                static_cast<unsigned long long>(r.tcp_stats.timeouts),
                static_cast<unsigned long long>(r.tcp_stats.fast_retransmits),
                static_cast<unsigned long long>(r.tcp_stats.ecn_reductions));
    print_fault_drops(16, r.fault_drops);
    emit_telemetry(r.telemetry);
    return 0;
  }

  if (mode == "short") {
    experiment::ShortFlowExperimentConfig cfg{controls};
    cfg.bottleneck_rate = core::BitsPerSec{rate_bps};
    cfg.load = get_num(kv, "short_load", 0.8);
    cfg.flow_packets = get_int(kv, "flow_len", 62, kLongMin, kLongMax);
    // Flavor only, as in mixed mode: the DCTCP step-marking profile is
    // long mode's.
    if (cca) cfg.tcp.flavor = *cca;
    cfg.warmup = sim::SimTime::from_seconds(warmup);
    cfg.measure = sim::SimTime::from_seconds(duration);

    if (sweeping) {
      return sweep(
          {"buffer (pkts)", "utilization", "AFCT (ms)", "flows", "drop prob"},
          [&](std::size_t i) {
            auto point = cfg;
            point.buffer_packets = buffers[i];
            return run_short_flow_experiment(point);
          },
          [](const experiment::ShortFlowExperimentResult& r) -> std::vector<std::string> {
            return {experiment::format("%.2f%%", 100 * r.utilization),
                    experiment::format("%.1f", 1e3 * r.afct_seconds),
                    experiment::format("%llu",
                                       static_cast<unsigned long long>(r.flows_completed)),
                    experiment::format("%.4f", r.drop_probability)};
          });
    }
    cfg.buffer_packets = buffer;
    const auto r = run_short_flow_experiment(cfg);
    const auto m = core::burst_moments_for_flow(cfg.flow_packets);
    std::printf("utilization : %.2f%% (offered load %.2f)\n", 100 * r.utilization, cfg.load);
    std::printf("AFCT        : %.1f ms over %llu flows (model ~ %.1f ms)\n",
                1e3 * r.afct_seconds,
                static_cast<unsigned long long>(r.flows_completed),
                1e3 * core::predicted_afct_seconds(cfg.flow_packets, r.mean_rtt_sec,
                                                   rate_bps, 1000, cfg.load, m));
    std::printf("drop prob   : %.4f (M/G/1 bound at this buffer: %.4f)\n",
                r.drop_probability,
                core::queue_tail_probability(cfg.load, m,
                                             static_cast<double>(buffer)));
    print_fault_drops(12, r.fault_drops);
    emit_telemetry(r.telemetry);
    return 0;
  }

  if (mode == "mixed") {
    experiment::MixedFlowExperimentConfig cfg{controls};
    cfg.bottleneck_rate = core::BitsPerSec{rate_bps};
    cfg.num_long_flows = flows;
    cfg.short_flow_load = get_num(kv, "short_load", 0.2);
    cfg.short_flow_packets = get_int(kv, "flow_len", 62, kLongMin, kLongMax);
    // Flavor only: the mixed experiment owns its queue discipline, so the
    // DCTCP step-marking profile applies in long mode alone.
    if (cca) cfg.tcp.flavor = *cca;
    cfg.warmup = sim::SimTime::from_seconds(warmup);
    cfg.measure = sim::SimTime::from_seconds(duration);

    if (sweeping) {
      return sweep(
          {"buffer (pkts)", "utilization", "short AFCT (ms)", "long goodput (Mb/s)",
           "drop prob"},
          [&](std::size_t i) {
            auto point = cfg;
            point.buffer_packets = buffers[i];
            return run_mixed_flow_experiment(point);
          },
          [](const experiment::MixedFlowExperimentResult& r) -> std::vector<std::string> {
            return {experiment::format("%.2f%%", 100 * r.utilization),
                    experiment::format("%.1f", 1e3 * r.afct_seconds),
                    experiment::format("%.1f", r.long_flow_throughput_bps / 1e6),
                    experiment::format("%.4f", r.drop_probability)};
          });
    }
    cfg.buffer_packets = buffer;
    const auto r = run_mixed_flow_experiment(cfg);
    std::printf("utilization       : %.2f%%\n", 100 * r.utilization);
    std::printf("short-flow AFCT   : %.1f ms over %llu flows\n", 1e3 * r.afct_seconds,
                static_cast<unsigned long long>(r.short_flows_completed));
    std::printf("long-flow goodput : %.1f Mb/s\n", r.long_flow_throughput_bps / 1e6);
    std::printf("drop probability  : %.4f\n", r.drop_probability);
    std::printf("mean queue        : %.1f pkts\n", r.mean_queue_packets);
    print_fault_drops(18, r.fault_drops);
    emit_telemetry(r.telemetry);
    return 0;
  }

  if (sweeping) {
    std::fprintf(stderr, "rbsim: buffer sweeps support modes long|short|mixed\n");
    return 2;
  }

  if (mode == "trace") {
    // Replayed flows are reaped without a per-flow harvest, so a rollup
    // would silently report zero flows.
    if (tele_cfg.flow_stats) {
      std::fprintf(stderr, "rbsim: --flow-stats is not supported in mode=trace\n");
      return 2;
    }
    const std::string replay_path = get_str(kv, "trace", "");
    if (replay_path.empty()) {
      std::fprintf(stderr, "rbsim: mode=trace requires trace=FILE\n");
      return 2;
    }
    std::vector<traffic::TraceRecord> records;
    try {
      records = traffic::load_trace_file(replay_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rbsim: %s\n", e.what());
      return 2;
    }
    if (records.empty()) {
      std::fprintf(stderr, "rbsim: trace '%s' contains no flows\n", replay_path.c_str());
      return 2;
    }

    net::DumbbellConfig topo_cfg;
    topo_cfg.num_leaves = std::max(flows, 1);
    topo_cfg.bottleneck_rate = core::BitsPerSec{rate_bps};
    topo_cfg.buffer_packets = buffer;
    const double trace_end = records.back().arrival_sec;
    experiment::DumbbellRun run{controls, topo_cfg, sim::SimTime::zero(),
                                sim::SimTime::from_seconds(trace_end + duration)};
    traffic::TraceWorkloadConfig trace_cfg;
    if (cca) trace_cfg.tcp.flavor = *cca;
    traffic::TraceWorkload wl{run.sim, run.topo, records, trace_cfg};
    // No warm-up: the replay window opens at t = 0, before faults are armed.
    run.begin_measurement(
        {{"flows_active", [&wl] { return static_cast<double>(wl.flows_active()); }}});
    run.arm([&wl](check::InvariantAuditor& auditor) { auditor.add("trace_flows", wl); });
    run.measure();

    std::printf("trace        : %zu flows from %s (last arrival %.1f s)\n", records.size(),
                replay_path.c_str(), trace_end);
    std::printf("completed    : %llu (active at cutoff: %zu)\n",
                static_cast<unsigned long long>(wl.flows_completed()), wl.flows_active());
    std::printf("AFCT         : %.1f ms\n", 1e3 * wl.completions().afct_seconds());
    std::printf("utilization  : %.2f%% over the replay window\n", 100 * run.utilization());
    std::printf("drops        : %llu\n",
                static_cast<unsigned long long>(
                    run.topo.bottleneck().queue().stats().dropped_packets));
    emit_telemetry(run.finish());
    return 0;
  }

  std::fprintf(stderr, "rbsim: unknown mode '%s' (long|short|mixed|trace)\n", mode.c_str());
  return 2;
}

}  // namespace
