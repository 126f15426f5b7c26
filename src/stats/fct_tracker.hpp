// Flow-completion-time accounting — the paper's §5.1.2/§5.1.3 metric.
//
// Two entry points:
//   - record(size, start, finish): one-shot record of a finished flow
//     (legacy path; no lifecycle tracking).
//   - start_flow(id, ...) / finish_flow(id, ...): explicit lifecycle. Open
//     flows are tracked so unfinished work is visible (a downed link can
//     strand flows forever), and completions for ids that are not open —
//     never started, or already finished — are rejected and counted rather
//     than silently double-recorded.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "check/auditor.hpp"
#include "sim/time.hpp"
#include "stats/online_stats.hpp"

namespace rbs::stats {

/// One finished flow.
struct FlowRecord {
  std::int64_t size_packets{0};
  sim::SimTime start{};
  sim::SimTime finish{};

  [[nodiscard]] sim::SimTime completion_time() const noexcept { return finish - start; }
};

/// Collects completion records and reports average flow completion time
/// (AFCT), optionally restricted to flows that finished inside a measurement
/// window or to a size range.
class FctTracker {
 public:
  void record(std::int64_t size_packets, sim::SimTime start, sim::SimTime finish) {
    records_.push_back({size_packets, start, finish});
  }

  /// Registers flow `id` as started. Returns false (and changes nothing)
  /// if the id is already open.
  bool start_flow(std::int64_t id, std::int64_t size_packets, sim::SimTime start) {
    const auto [it, inserted] = open_.emplace(id, FlowRecord{size_packets, start, {}});
    if (inserted) ++flows_started_;
    return inserted;
  }

  /// Completes flow `id`, turning its open entry into a record. Returns
  /// false if the id is not open (never started, or finished already —
  /// duplicate completions must not skew AFCT); such attempts are counted
  /// in duplicate_completions().
  bool finish_flow(std::int64_t id, sim::SimTime finish) {
    const auto it = open_.find(id);
    if (it == open_.end()) {
      ++duplicate_completions_;
      return false;
    }
    FlowRecord r = it->second;
    r.finish = finish;
    records_.push_back(r);
    open_.erase(it);
    ++flows_finished_;
    return true;
  }

  /// Flows started but not yet finished.
  [[nodiscard]] std::size_t unfinished() const noexcept { return open_.size(); }
  /// Rejected finish_flow() calls (unknown or already-finished ids).
  [[nodiscard]] std::uint64_t duplicate_completions() const noexcept {
    return duplicate_completions_;
  }

  [[nodiscard]] std::size_t count() const noexcept { return records_.size(); }
  [[nodiscard]] const std::vector<FlowRecord>& records() const noexcept { return records_; }

  /// AFCT in seconds over all records.
  [[nodiscard]] double afct_seconds() const noexcept { return afct_filtered().mean(); }

  /// Summary of completion times (seconds) for flows that *started* at or
  /// after `from` (so warm-up flows can be excluded) and whose size is within
  /// [min_size, max_size].
  [[nodiscard]] OnlineStats afct_filtered(
      sim::SimTime from = sim::SimTime::zero(), std::int64_t min_size = 0,
      std::int64_t max_size = std::numeric_limits<std::int64_t>::max()) const noexcept {
    OnlineStats s;
    for (const auto& r : records_) {
      if (r.start < from || r.size_packets < min_size || r.size_packets > max_size) continue;
      s.add(r.completion_time().to_seconds());
    }
    return s;
  }

  /// Lifecycle conservation: started == finished + open, and every record
  /// produced by finish_flow() is non-negative in duration.
  void audit(check::AuditReport& report) const {
    if (flows_started_ != flows_finished_ + open_.size()) {
      report.violation("fct lifecycle broken: started " + std::to_string(flows_started_) +
                       " != finished " + std::to_string(flows_finished_) + " + open " +
                       std::to_string(open_.size()));
    }
    for (const auto& r : records_) {
      if (r.finish < r.start) {
        report.violation("flow record finishes at " + r.finish.to_string() +
                         " before it starts at " + r.start.to_string());
        break;  // one example is enough; the vector can be large
      }
    }
  }

  void clear() {
    records_.clear();
    open_.clear();
    flows_started_ = 0;
    flows_finished_ = 0;
    duplicate_completions_ = 0;
  }

 private:
  std::vector<FlowRecord> records_;
  /// Open flows keyed by id; ordered so audits and any iteration are
  /// deterministic.
  std::map<std::int64_t, FlowRecord> open_;
  std::uint64_t flows_started_{0};
  std::uint64_t flows_finished_{0};
  std::uint64_t duplicate_completions_{0};
};

}  // namespace rbs::stats
