#include "experiment/cca_matrix.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <utility>

#include "experiment/sweep.hpp"

namespace rbs::experiment {

void apply_cca_profile(LongFlowExperimentConfig& config, tcp::TcpFlavor flavor,
                       std::int64_t buffer_packets) {
  config.tcp.flavor = flavor;
  if (flavor == tcp::TcpFlavor::kDctcp) {
    // DCTCP step marking (SIGCOMM 2010): mark every packet that arrives to
    // an instantaneous queue above K, never early-drop. K tracks the probed
    // buffer (half of it) so the bisection varies the *marked* operating
    // point, not just the overflow ceiling.
    config.discipline = net::QueueDiscipline::kRed;
    net::RedConfig red;
    red.weight = 1.0;  // instantaneous queue, not an EWMA
    const double k = std::max(1.0, static_cast<double>(buffer_packets) / 2.0);
    red.min_threshold = k;
    red.max_threshold = k + 1.0;  // a one-packet ramp: a step in practice
    red.max_probability = 1.0;
    red.gentle = true;  // keep marking (not dropping) above the step
    red.ecn_marking = true;
    config.red = red;
  }
}

namespace {

CcaMatrixCell run_cell(const CcaMatrixConfig& mc, tcp::TcpFlavor cca, int n) {
  CcaMatrixCell cell;
  cell.cca = cca;
  cell.num_flows = n;

  LongFlowExperimentConfig cfg = mc.base;
  cfg.num_flows = n;

  // The scenario's BDP is topological (propagation RTT × rate); read it off
  // the cell's dumbbell, whose access delays the seed draws, rather than
  // re-deriving the dumbbell's mean-RTT formula.
  require(n >= 1, "CCA matrix: every flow count must be >= 1");
  {
    sim::Simulation sim{cfg.seed};
    const net::Dumbbell topo{sim, dumbbell_for(cfg, n)};
    cell.bdp_packets = static_cast<std::int64_t>(std::llround(topo.bdp_packets(cfg.tcp.segment)));
  }
  cell.sqrt_rule_packets = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(static_cast<double>(cell.bdp_packets) / std::sqrt(static_cast<double>(n)))));

  const std::int64_t lo = std::max<std::int64_t>(1, mc.min_buffer);
  const std::int64_t hi = std::max(
      lo + 1, static_cast<std::int64_t>(
                  std::ceil(static_cast<double>(cell.bdp_packets) * mc.bdp_multiple)));

  const auto prepare = [cca](LongFlowExperimentConfig& c, std::int64_t buffer) {
    apply_cca_profile(c, cca, buffer);
  };
  cell.min_buffer_packets =
      min_buffer_for_utilization(cfg, mc.target_utilization, lo, hi, prepare);

  LongFlowExperimentConfig at_min = cfg;
  at_min.buffer_packets = cell.min_buffer_packets;
  apply_cca_profile(at_min, cca, cell.min_buffer_packets);
  cell.utilization_at_min = run_long_flow_experiment(at_min).utilization;

  cell.ratio_vs_sqrt_rule = static_cast<double>(cell.min_buffer_packets) /
                            static_cast<double>(cell.sqrt_rule_packets);
  return cell;
}

}  // namespace

CcaMatrixResult run_cca_buffer_matrix(const CcaMatrixConfig& config) {
  assert(!config.ccas.empty() && !config.flow_counts.empty());
  CcaMatrixResult result;
  result.config = config;

  std::vector<std::pair<tcp::TcpFlavor, int>> points;
  points.reserve(config.ccas.size() * config.flow_counts.size());
  for (const tcp::TcpFlavor cca : config.ccas) {
    for (const int n : config.flow_counts) points.emplace_back(cca, n);
  }

  SweepRunner runner{config.threads};
  result.cells = runner.map<CcaMatrixCell>(points.size(), [&](std::size_t i) {
    return run_cell(config, points[i].first, points[i].second);
  });
  return result;
}

std::string to_table(const CcaMatrixResult& result) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-8s %6s %10s %8s %10s %8s %9s\n", "cca", "flows",
                "min_buf", "bdp", "sqrt_rule", "util", "vs_sqrt");
  out += line;
  for (const CcaMatrixCell& c : result.cells) {
    std::snprintf(line, sizeof line, "%-8s %6d %10lld %8lld %10lld %7.2f%% %8.2fx\n",
                  tcp::flavor_name(c.cca), c.num_flows,
                  static_cast<long long>(c.min_buffer_packets),
                  static_cast<long long>(c.bdp_packets),
                  static_cast<long long>(c.sqrt_rule_packets), 100.0 * c.utilization_at_min,
                  c.ratio_vs_sqrt_rule);
    out += line;
  }
  return out;
}

std::string to_csv(const CcaMatrixResult& result) {
  std::string out =
      "cca,flows,min_buffer_pkts,bdp_pkts,sqrt_rule_pkts,utilization,ratio_vs_sqrt_rule\n";
  char line[160];
  for (const CcaMatrixCell& c : result.cells) {
    std::snprintf(line, sizeof line, "%s,%d,%lld,%lld,%lld,%.6f,%.4f\n",
                  tcp::flavor_name(c.cca), c.num_flows,
                  static_cast<long long>(c.min_buffer_packets),
                  static_cast<long long>(c.bdp_packets),
                  static_cast<long long>(c.sqrt_rule_packets), c.utilization_at_min,
                  c.ratio_vs_sqrt_rule);
    out += line;
  }
  return out;
}

}  // namespace rbs::experiment
