#include "stats/time_series.hpp"

#include <cstdio>

namespace rbs::stats {

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.value);
  return out;
}

std::string TimeSeries::to_csv() const {
  std::string out;
  out.reserve(points_.size() * 24);
  char line[64];
  for (const auto& p : points_) {
    std::snprintf(line, sizeof line, "%.9f,%.9g\n", p.time.to_seconds(), p.value);
    out += line;
  }
  return out;
}

PeriodicTicker::PeriodicTicker(sim::Simulation& sim, sim::SimTime interval, Tick tick)
    : sim_{sim}, interval_{interval}, tick_{std::move(tick)} {}

void PeriodicTicker::start(sim::SimTime first) {
  next_ = sim_.at(first, [this] { fire(); }, sim::EventClass::kSampler);
}

void PeriodicTicker::fire() {
  tick_();
  next_ = sim_.after(interval_, [this] { fire(); }, sim::EventClass::kSampler);
}

PeriodicSampler::PeriodicSampler(sim::Simulation& sim, sim::SimTime interval, Probe probe)
    : probe_{std::move(probe)},
      ticker_{sim, interval, [this, &sim] { series_.record(sim.now(), probe_()); }} {}

}  // namespace rbs::stats
