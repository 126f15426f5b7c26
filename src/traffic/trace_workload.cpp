#include "traffic/trace_workload.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rbs::traffic {

namespace {
constexpr net::FlowId kFirstFlowId = 3'000'000;
}  // namespace

std::vector<TraceRecord> parse_trace(const std::string& text) {
  std::vector<TraceRecord> records;
  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields{line};
    double arrival;
    long long size;
    if (!(fields >> arrival)) continue;  // blank/comment line
    if (!(fields >> size) || arrival < 0 || size < 1) {
      throw std::runtime_error("trace parse error at line " + std::to_string(line_no) +
                               ": expected '<arrival_seconds> <size_packets>'");
    }
    std::string extra;
    if (fields >> extra) {
      throw std::runtime_error("trace parse error at line " + std::to_string(line_no) +
                               ": trailing content '" + extra + "'");
    }
    records.push_back({arrival, size});
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.arrival_sec < b.arrival_sec;
                   });
  return records;
}

std::vector<TraceRecord> load_trace_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_trace(text.str());
}

std::string format_trace(const std::vector<TraceRecord>& records) {
  std::string out = "# arrival_seconds size_packets\n";
  char line[64];
  for (const auto& r : records) {
    std::snprintf(line, sizeof line, "%.6f %lld\n", r.arrival_sec,
                  static_cast<long long>(r.size_packets));
    out += line;
  }
  return out;
}

TraceWorkload::TraceWorkload(sim::Simulation& sim, net::Dumbbell& topo,
                             std::vector<TraceRecord> records, const TraceWorkloadConfig& config)
    : FlowTable{sim, topo, config.tcp, config.sink},
      placement_{topo, LeafRange{}},
      records_{std::move(records)} {
  launches_.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    launches_.push_back(sim.at(sim::SimTime::from_seconds(records_[i].arrival_sec),
                               [this, i] { arrive(i); }, sim::EventClass::kWorkload));
  }
}

TraceWorkload::~TraceWorkload() {
  for (auto& h : launches_) h.cancel();
}

void TraceWorkload::arrive(std::size_t index) {
  launch(placement_.leaf(index), kFirstFlowId + static_cast<net::FlowId>(index),
         records_[index].size_packets);
}

void TraceWorkload::audit(check::AuditReport& report) const {
  FlowTable::audit(report);
  if (flows_started() > records_.size()) {
    report.violation("started " + std::to_string(flows_started()) + " flows from a trace of " +
                     std::to_string(records_.size()));
  }
}

}  // namespace rbs::traffic
