#include "sweeps.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <variant>
#include <vector>

#include "core/sizing_rules.hpp"
#include "experiment/cca_matrix.hpp"
#include "experiment/long_flow_experiment.hpp"
#include "experiment/reporting.hpp"
#include "experiment/short_flow_experiment.hpp"
#include "sim/random.hpp"

namespace rbs::perfbench {
namespace {

using experiment::format;
using experiment::LongFlowExperimentConfig;
using experiment::ShortFlowExperimentConfig;
using experiment::SweepRunner;

// --- Scales -----------------------------------------------------------------
//
// A batch must cost about the same for every seed, or the benchmark would
// measure the seed rather than the simulator. Three choices make it so:
//
//   - every sweep point draws its own simulation seed from the batch seed,
//     so a batch averages many independent worlds instead of repeating one
//     world's luck at every point;
//   - every bisection bracket holds a power-of-two number of buffer sizes,
//     so each probe halves it exactly and the probe count does not depend on
//     the answers;
//   - points whose bracket top would often miss the target (which ends a
//     bisection after one probe) are left out: fig7's n = 50 and 100, whose
//     flows stay synchronized through a short warm-up, and its 99.5% target;
//     the CCA matrix's n = 10, where NewReno and DCTCP missed 80% utilization
//     at the bracket top in 4 of 84 cells over seeds 0-20 (n = 20 in none).
//
// Otherwise each sweep keeps its figure's brackets; the simulated windows are
// shorter and fig7 keeps every other point, so a batch takes a few
// CPU-seconds. Points are listed costliest first, so the runner's workers
// finish at nearly the same time and the batch's wall time does not hinge on
// which worker drew the last expensive point.

constexpr double kOc3Bps = 155e6;
constexpr double kFig7RttSec = 0.080;  // mean RTT of the default dumbbell
constexpr double kFig7Target = 0.98;
const std::vector<int> kFig7Flows{500, 400, 300, 200};

const std::vector<double> kFig8Rates{200e6, 80e6, 40e6};
constexpr int kFig8Replicas = 4;
constexpr std::int64_t kFig8FlowPackets = 62;
constexpr std::int64_t kFig8BaselineBuffer = 4000;
constexpr std::int64_t kFig8Lo = 5;
constexpr std::int64_t kFig8Hi = kFig8Lo + 1023;  // the figure's [5, 1200], rounded to 2^10

constexpr std::int64_t kCcaLo = 2;
constexpr std::int64_t kCcaHi = kCcaLo + 1023;  // ~2 BDP at 50 Mb/s, as the figure's bracket
constexpr std::array<int, 2> kCcaFlows{20, 40};

/// Stream the per-point simulation seeds are forked from.
constexpr std::uint64_t kPointSeedStream = 0x5EED0000;

std::uint64_t point_seed(std::uint64_t seed, std::size_t point) {
  return sim::Rng{seed}.fork(kPointSeedStream + point).next_u64();
}

/// Top of a bracket starting at `lo` that covers at least [lo, hi] and holds
/// a power-of-two number of sizes.
std::int64_t power_of_two_top(std::int64_t lo, std::int64_t hi) {
  std::int64_t size = 1;
  while (size < hi - lo + 1) size *= 2;
  return lo + size - 1;
}

/// Calls into the observer if one is installed.
class Runs {
 public:
  Runs(RunObserver* observer, std::size_t point) : observer_{observer}, point_{point} {}
  void begin() const {
    if (observer_ != nullptr) observer_->run_begin(point_);
  }
  void end() const {
    if (observer_ != nullptr) observer_->run_end(point_);
  }

 private:
  RunObserver* observer_;
  std::size_t point_;
};

/// Runs `point` for every index on the sweep runner and joins the lines.
template <typename F>
std::string map_lines(const SweepOptions& options, std::size_t points, F&& point) {
  SweepRunner runner{options.threads};
  runner.set_observer(options.points);
  const auto rows = runner.map<std::string>(points, std::forward<F>(point));
  std::string out;
  for (const auto& row : rows) out += row;
  return out;
}

// --- fig7: min buffer for 98% utilization vs n long flows ------------------

LongFlowExperimentConfig fig7_config(int n, std::uint64_t seed) {
  LongFlowExperimentConfig cfg;
  cfg.num_flows = n;
  cfg.bottleneck_rate = core::BitsPerSec{kOc3Bps};
  cfg.warmup = sim::SimTime::seconds(1);
  cfg.measure = sim::SimTime::seconds(1);
  cfg.seed = seed;
  return cfg;
}

std::int64_t fig7_model(int n) {
  return core::sqrt_rule_packets(kFig7RttSec, kOc3Bps, n, 1000);
}

std::int64_t fig7_lo(std::int64_t model) { return std::max<std::int64_t>(2, model / 3); }

std::int64_t fig7_hi(std::int64_t model) {
  const auto bdp = static_cast<std::int64_t>(kFig7RttSec * kOc3Bps / 8000.0);
  return power_of_two_top(fig7_lo(model), std::min<std::int64_t>(bdp * 2, model * 8));
}

std::string run_fig7(const SweepOptions& options) {
  return map_lines(options, kFig7Flows.size(), [&](std::size_t idx) {
    const Runs runs{options.runs, idx};
    auto cfg = fig7_config(kFig7Flows[idx], point_seed(options.seed, idx));
    const std::int64_t model = fig7_model(cfg.num_flows);
    const std::int64_t min_b = experiment::min_buffer_for_utilization(
        cfg, kFig7Target, fig7_lo(model), fig7_hi(model),
        [&runs](LongFlowExperimentConfig&, std::int64_t) { runs.begin(); });
    runs.end();
    cfg.buffer_packets = model;
    runs.begin();
    const double loss = experiment::run_long_flow_experiment(cfg).loss_rate;
    runs.end();
    return format("n=%d model=%lld min_b@98%%=%lld loss_at_rule=%a\n", cfg.num_flows,
                  static_cast<long long>(model), static_cast<long long>(min_b), loss);
  });
}

// --- fig8: min buffer for a bounded AFCT penalty vs line rate --------------

ShortFlowExperimentConfig fig8_config(double rate, std::uint64_t seed) {
  ShortFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{rate};
  cfg.load = 0.8;
  cfg.flow_packets = kFig8FlowPackets;
  cfg.warmup = sim::SimTime::seconds(1);
  cfg.measure = sim::SimTime::milliseconds(2500);
  cfg.seed = seed;
  cfg.buffer_packets = kFig8BaselineBuffer;
  return cfg;
}

std::string run_fig8(const SweepOptions& options) {
  const std::size_t points = kFig8Rates.size() * kFig8Replicas;
  return map_lines(options, points, [&](std::size_t idx) {
    const Runs runs{options.runs, idx};
    const double rate = kFig8Rates[idx / kFig8Replicas];
    auto cfg = fig8_config(rate, point_seed(options.seed, idx));
    runs.begin();
    const auto baseline = experiment::run_short_flow_experiment(cfg);
    runs.end();
    // min_buffer_for_afct has no per-probe hook: the bisection is one run.
    runs.begin();
    const std::int64_t min_b = experiment::min_buffer_for_afct(
        cfg, baseline.afct_seconds, /*afct_penalty=*/0.125, kFig8Lo, kFig8Hi);
    runs.end();
    cfg.buffer_packets = min_b;
    runs.begin();
    const auto at_min = experiment::run_short_flow_experiment(cfg);
    runs.end();
    return format("rate=%.0f baseline_afct=%a min_b=%lld afct_at_min=%a flows_at_min=%llu\n", rate,
                  baseline.afct_seconds, static_cast<long long>(min_b), at_min.afct_seconds,
                  static_cast<unsigned long long>(at_min.flows_completed));
  });
}

// --- cca_matrix: min buffer per congestion-control flavor x n --------------

/// One matrix cell, made of the calls run_cca_buffer_matrix makes (a
/// minimal run for the BDP, the bisection with apply_cca_profile as its
/// per-probe hook, a run at the answer) but with the batch's bracket.
std::string run_cca_cell(tcp::TcpFlavor cca, int n, std::uint64_t seed, const Runs& runs) {
  experiment::CcaMatrixCell cell;
  cell.cca = cca;
  cell.num_flows = n;
  LongFlowExperimentConfig cfg;
  cfg.num_flows = n;
  cfg.bottleneck_rate = core::BitsPerSec{50e6};
  cfg.warmup = sim::SimTime::seconds(4);
  cfg.measure = sim::SimTime::seconds(6);
  cfg.seed = seed;

  LongFlowExperimentConfig probe = cfg;
  probe.warmup = sim::SimTime::milliseconds(1);
  probe.measure = sim::SimTime::milliseconds(1);
  runs.begin();
  cell.bdp_packets = std::llround(experiment::run_long_flow_experiment(probe).bdp_packets);
  runs.end();
  cell.sqrt_rule_packets = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(static_cast<double>(cell.bdp_packets) /
                                             std::sqrt(static_cast<double>(n)))));

  cell.min_buffer_packets = experiment::min_buffer_for_utilization(
      cfg, experiment::CcaMatrixConfig{}.target_utilization, kCcaLo, kCcaHi,
      [&](LongFlowExperimentConfig& c, std::int64_t buffer) {
        experiment::apply_cca_profile(c, cca, buffer);
        runs.begin();
      });
  runs.end();

  cfg.buffer_packets = cell.min_buffer_packets;
  experiment::apply_cca_profile(cfg, cca, cell.min_buffer_packets);
  runs.begin();
  cell.utilization_at_min = experiment::run_long_flow_experiment(cfg).utilization;
  runs.end();
  cell.ratio_vs_sqrt_rule = static_cast<double>(cell.min_buffer_packets) /
                            static_cast<double>(cell.sqrt_rule_packets);

  experiment::CcaMatrixResult one;
  one.cells.push_back(cell);
  const std::string table = experiment::to_table(one);
  return table.substr(table.find('\n') + 1);  // the cell's row, without the header
}

std::string run_cca_matrix(const SweepOptions& options) {
  const experiment::CcaMatrixConfig defaults;
  std::vector<std::pair<tcp::TcpFlavor, int>> cells;
  for (const tcp::TcpFlavor cca : defaults.ccas) {
    for (const int n : kCcaFlows) cells.emplace_back(cca, n);
  }
  return map_lines(options, cells.size(), [&](std::size_t i) {
    return run_cca_cell(cells[i].first, cells[i].second, point_seed(options.seed, i),
                        Runs{options.runs, i});
  });
}

/// One run of `cfg`. Returns a value of the result so the call has an
/// observable effect.
double run_world(const LongFlowExperimentConfig& cfg) {
  return experiment::run_long_flow_experiment(cfg).bdp_packets;
}
double run_world(const ShortFlowExperimentConfig& cfg) {
  return experiment::run_short_flow_experiment(cfg).mean_rtt_sec;
}

/// Receives each set-up result so the builds stay observable.
volatile double g_setup_sink = 0;

}  // namespace

WorldConfig setup_world(Workload w, std::uint64_t seed) {
  const auto zero = sim::SimTime::zero();
  switch (w) {
    case Workload::kFig7: {
      auto cfg = fig7_config(kFig7Flows.front(), seed);
      cfg.buffer_packets = fig7_hi(fig7_model(cfg.num_flows));
      cfg.warmup = cfg.measure = zero;
      return cfg;
    }
    case Workload::kFig8: {
      auto cfg = fig8_config(kFig8Rates.front(), seed);
      cfg.warmup = cfg.measure = zero;
      return cfg;
    }
    case Workload::kCcaMatrix: {
      // DCTCP's RED-marking bottleneck is the most elaborate world of the matrix.
      LongFlowExperimentConfig cfg;
      cfg.num_flows = kCcaFlows.back();
      cfg.bottleneck_rate = core::BitsPerSec{50e6};
      cfg.buffer_packets = kCcaHi;
      cfg.seed = seed;
      experiment::apply_cca_profile(cfg, tcp::TcpFlavor::kDctcp, cfg.buffer_packets);
      cfg.warmup = cfg.measure = zero;
      return cfg;
    }
  }
  return LongFlowExperimentConfig{};
}

const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::kFig7: return "fig7";
    case Workload::kFig8: return "fig8";
    case Workload::kCcaMatrix: return "cca_matrix";
  }
  return "unknown";
}

std::optional<Workload> parse_workload(std::string_view name) noexcept {
  for (const Workload w : kAllWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::string run_sweep(Workload w, const SweepOptions& options) {
  switch (w) {
    case Workload::kFig7: return run_fig7(options);
    case Workload::kFig8: return run_fig8(options);
    case Workload::kCcaMatrix: return run_cca_matrix(options);
  }
  return {};
}

double setup_seconds_per_world(Workload w, std::uint64_t seed, double seconds) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  long calls = 0;
  double elapsed = 0.0;
  while (elapsed < seconds || calls == 0) {
    g_setup_sink = std::visit([](const auto& cfg) { return run_world(cfg); }, setup_world(w, seed));
    ++calls;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return elapsed / static_cast<double>(calls);
}

net::DumbbellConfig dumbbell_config(const LongFlowExperimentConfig& cfg) {
  net::DumbbellConfig t;
  t.num_leaves = cfg.num_flows;
  t.bottleneck_rate = cfg.bottleneck_rate;
  t.bottleneck_delay = cfg.bottleneck_delay;
  t.buffer_packets = cfg.buffer_packets;
  t.access_rate = cfg.access_rate;
  t.access_delay_min = cfg.access_delay_min;
  t.access_delay_max = cfg.access_delay_max;
  t.discipline = cfg.discipline;
  t.red = cfg.red;
  return t;
}

net::DumbbellConfig dumbbell_config(const ShortFlowExperimentConfig& cfg) {
  net::DumbbellConfig t;
  t.num_leaves = cfg.num_leaves;
  t.bottleneck_rate = cfg.bottleneck_rate;
  t.bottleneck_delay = cfg.bottleneck_delay;
  t.buffer_packets = cfg.buffer_packets;
  t.access_rate = cfg.access_rate;
  t.access_delay_min = cfg.access_delay_min;
  t.access_delay_max = cfg.access_delay_max;
  return t;
}

}  // namespace rbs::perfbench
