// Metrics registry: counters, gauges, and log-linear histograms with static
// labels, plus snapshot export to JSON and CSV.
//
// Design rules:
//   - The hot path is a plain integer/floating add on a cached handle — no
//     locks, no atomics, no lookups. One sim::Simulation is single-threaded
//     by construction (the parallel sweep runner gives every point its own
//     Simulation), so plain members are already race-free; "lock-free" here
//     means the increment compiles to the same code as bumping a struct
//     field.
//   - Registration (`registry.counter(name, labels)`) is the cold path: it
//     builds a key string and walks an ordered map. Components cache the
//     returned reference; metric objects never move once created.
//   - Snapshot/iteration order is the ordered map's key order, so exports
//     are deterministic and two identically seeded runs produce bitwise
//     identical JSON/CSV.
//
// This header is dependency-free (std only) so every layer, including sim/
// itself, can own a registry without include cycles.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"

namespace rbs::telemetry {

/// Static labels attached at registration, e.g. {{"link", "bottleneck_fwd"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count of events (drops, marks, retransmits).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_{0};
};

/// A value that goes up and down (queue depth, utilization, pool occupancy).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double v) noexcept { value_ += v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_{0.0};
};

/// Log-linear histogram of non-negative values (durations, sizes, depths).
///
/// Bucket 0 holds [0, 1). Above that, every power-of-two decade [2^e, 2^e+1)
/// splits into kSubBuckets equal-width sub-buckets, giving a fixed <= 12.5%
/// relative bucket width over the whole double range — the same layout
/// HdrHistogram uses. record() is a handful of integer ops; storage grows
/// lazily to the highest bucket touched.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;

  void record(double v) {
    const std::size_t idx = bucket_index(v);
    if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
    ++counts_[idx];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Nearest-rank quantile estimate (q in [0,1]): the midpoint of the
  /// bucket containing the sample of rank ceil(q*count), clamped to the
  /// observed [min, max]. Exact to one bucket width (<= 12.5% relative
  /// error), and the same convention QuantileSketch uses, so histogram and
  /// sketch percentiles are directly comparable.
  [[nodiscard]] double quantile(double q) const;

  /// Maps a value to its bucket index. Negative values clamp to bucket 0.
  [[nodiscard]] static std::size_t bucket_index(double v) noexcept;
  /// Inclusive lower bound of bucket `idx`.
  [[nodiscard]] static double bucket_lower_bound(std::size_t idx) noexcept;
  /// Exclusive upper bound of bucket `idx`.
  [[nodiscard]] static double bucket_upper_bound(std::size_t idx) noexcept;

  /// (upper_bound, count) for every non-empty bucket, ascending.
  [[nodiscard]] std::vector<std::pair<double, std::uint64_t>> nonempty_buckets() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* metric_kind_name(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

/// One metric's value at snapshot time. Histograms carry a summary
/// (count/sum/min/max/p50/p90/p99, nearest-rank) instead of raw buckets.
struct MetricSample {
  MetricKind kind{MetricKind::kCounter};
  std::string name;
  Labels labels;
  double value{0.0};  ///< counter (exact up to 2^53) or gauge reading

  // Histogram summary; zero for counters/gauges.
  std::uint64_t count{0};
  double sum{0.0};
  double min{0.0};
  double max{0.0};
  double p50{0.0};
  double p90{0.0};
  double p99{0.0};
};

/// Point-in-time copy of a whole registry, in deterministic key order.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// {"metrics":[{"name":...,"kind":...,"labels":{...},...}, ...]}
  [[nodiscard]] std::string to_json() const;
  /// name,kind,labels,value,count,sum,min,max,p50,p90,p99 — one row per
  /// metric, RFC-4180 quoted.
  [[nodiscard]] std::string to_csv() const;

  /// First sample matching `name` (and `labels`, when given), or nullptr.
  [[nodiscard]] const MetricSample* find(const std::string& name,
                                         const Labels& labels = {}) const;
};

/// Owns every metric of one simulation. See the header comment for the
/// threading and determinism contract.
class MetricsRegistry {
  RBS_THREAD_CONFINED(
      "one registry per Simulation, mutated only by that simulation's thread; "
      "the lock-free hot path is sound because producers never cross threads.");

 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under (name, labels), creating it on
  /// first use. Re-registering the same key with a different kind throws
  /// std::logic_error.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Metric {
    MetricKind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric& entry(MetricKind kind, const std::string& name, const Labels& labels);

  /// Keyed by name + serialized labels; std::map keeps snapshot order
  /// deterministic (the lint forbids unordered iteration for good reason).
  std::map<std::string, Metric> metrics_;
};

/// Multi-column sampled time series — the table an experiment's telemetry
/// fills, one row per sampling tick. Pure data so experiment results can
/// carry it by value.
struct SeriesTable {
  std::vector<std::string> columns;
  std::vector<std::int64_t> times_ps;
  std::vector<std::vector<double>> rows;  ///< rows[i][c] pairs with columns[c]

  [[nodiscard]] bool empty() const noexcept { return times_ps.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return times_ps.size(); }

  /// Mean of one column over all rows (0 when empty or unknown column).
  [[nodiscard]] double column_mean(const std::string& column) const;

  /// "time_sec,<col>,..." header + one row per sample.
  [[nodiscard]] std::string to_csv() const;
  /// {"columns":[...],"rows":[[t_sec, v...], ...]}
  [[nodiscard]] std::string to_json() const;
};

}  // namespace rbs::telemetry
