// Sampled time series, and the periodic tick loop that fills them from the
// event loop.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "stats/online_stats.hpp"

namespace rbs::stats {

/// An append-only sequence of (time, value) points.
class TimeSeries {
 public:
  struct Point {
    sim::SimTime time;
    double value;
  };

  void record(sim::SimTime t, double v) {
    points_.push_back({t, v});
    summary_.add(v);
  }

  [[nodiscard]] const std::vector<Point>& points() const noexcept { return points_; }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] const OnlineStats& summary() const noexcept { return summary_; }

  /// Values only (for distribution analysis).
  [[nodiscard]] std::vector<double> values() const;

  /// Renders "time_sec,value" lines (no header).
  [[nodiscard]] std::string to_csv() const;

  void clear() {
    points_.clear();
    summary_ = OnlineStats{};
  }

 private:
  std::vector<Point> points_;
  OnlineStats summary_;
};

/// Calls `tick` every `interval` of simulated time, one scheduler event per
/// call, from start() until stop() or destruction.
class PeriodicTicker {
 public:
  using Tick = std::function<void()>;

  PeriodicTicker(sim::Simulation& sim, sim::SimTime interval, Tick tick);
  ~PeriodicTicker() { stop(); }

  PeriodicTicker(const PeriodicTicker&) = delete;
  PeriodicTicker& operator=(const PeriodicTicker&) = delete;

  /// Begins ticking at `first` (absolute time).
  void start(sim::SimTime first);
  void stop() noexcept { next_.cancel(); }

 private:
  void fire();

  sim::Simulation& sim_;
  sim::SimTime interval_;
  Tick tick_;
  sim::Scheduler::EventHandle next_;
};

/// Calls a probe function every `interval` and records the result: a
/// PeriodicTicker plus the TimeSeries it fills.
class PeriodicSampler {
 public:
  using Probe = std::function<double()>;

  PeriodicSampler(sim::Simulation& sim, sim::SimTime interval, Probe probe);

  PeriodicSampler(const PeriodicSampler&) = delete;  // the ticker captures `this`
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  /// Begins sampling at `first` (absolute time).
  void start(sim::SimTime first) { ticker_.start(first); }
  void stop() noexcept { ticker_.stop(); }

  [[nodiscard]] const TimeSeries& series() const noexcept { return series_; }
  [[nodiscard]] TimeSeries& series() noexcept { return series_; }

 private:
  Probe probe_;
  TimeSeries series_;
  PeriodicTicker ticker_;  // last: stops before the probe and series go
};

}  // namespace rbs::stats
