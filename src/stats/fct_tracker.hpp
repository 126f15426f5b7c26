// Flow-completion-time accounting — the paper's §5.1.2/§5.1.3 metric.
//
// Holds finished flows only. Open flows live in traffic::FlowTable, which
// appends a record here when it reaps a flow, so records are in reap order.
#pragma once

#include <cstdint>
#include <limits>
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
  void add(const FlowRecord& record) { records_.push_back(record); }

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

  /// Every record is non-negative in duration.
  void audit(check::AuditReport& report) const {
    for (const auto& r : records_) {
      if (r.finish < r.start) {
        report.violation("flow record finishes at " + r.finish.to_string() +
                         " before it starts at " + r.start.to_string());
        break;  // one example is enough; the vector can be large
      }
    }
  }

 private:
  std::vector<FlowRecord> records_;
};

}  // namespace rbs::stats
