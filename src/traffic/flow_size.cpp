#include "traffic/flow_size.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace rbs::traffic {

FixedFlowSize::FixedFlowSize(std::int64_t packets) : packets_{packets} {
  if (packets < 1) throw std::invalid_argument("FixedFlowSize: packets must be >= 1");
}

UniformFlowSize::UniformFlowSize(std::int64_t lo, std::int64_t hi) : lo_{lo}, hi_{hi} {
  if (lo < 1 || hi < lo) throw std::invalid_argument("UniformFlowSize: need 1 <= lo <= hi");
}

std::int64_t UniformFlowSize::sample(sim::Rng& rng) { return rng.uniform_int(lo_, hi_); }

ParetoFlowSize::ParetoFlowSize(double alpha, std::int64_t min_packets,
                               std::int64_t max_packets)
    : alpha_{alpha}, min_{min_packets}, max_{max_packets} {
  if (!(alpha > 0) || min_packets < 1 || max_packets < min_packets) {
    throw std::invalid_argument("ParetoFlowSize: need alpha > 0 and 1 <= min <= max");
  }
}

std::int64_t ParetoFlowSize::sample(sim::Rng& rng) {
  const double raw = rng.pareto(static_cast<double>(min_), alpha_);
  const auto len = static_cast<std::int64_t>(std::llround(raw));
  return std::clamp(len, min_, max_);
}

double ParetoFlowSize::mean() const noexcept {
  // Mean of a Pareto truncated at max_ (alpha != 1):
  //   E[X] = alpha*xm/(alpha-1) * (1 - (xm/xM)^(alpha-1)) / (1 - (xm/xM)^alpha)
  // then clamped contributions make this approximate; adequate for sizing
  // arrival rates.
  const double xm = static_cast<double>(min_);
  const double xM = static_cast<double>(max_);
  if (std::abs(alpha_ - 1.0) < 1e-9) {
    return xm * std::log(xM / xm) / (1.0 - xm / xM);
  }
  const double r = xm / xM;
  const double num = 1.0 - std::pow(r, alpha_ - 1.0);
  const double den = 1.0 - std::pow(r, alpha_);
  return alpha_ * xm / (alpha_ - 1.0) * num / den;
}

EmpiricalFlowSize::EmpiricalFlowSize(std::vector<Class> classes)
    : classes_{std::move(classes)} {
  assert(!classes_.empty());
  double total = 0.0;
  mean_ = 0.0;
  for (const auto& c : classes_) {
    assert(c.packets >= 1 && c.weight > 0);
    total += c.weight;
    mean_ += c.weight * static_cast<double>(c.packets);
  }
  mean_ /= total;
  // Store cumulative weights for sampling.
  double cum = 0.0;
  for (auto& c : classes_) {
    cum += c.weight / total;
    c.weight = cum;
  }
  classes_.back().weight = 1.0;  // guard against rounding
}

std::int64_t EmpiricalFlowSize::sample(sim::Rng& rng) {
  const double u = rng.uniform();
  for (const auto& c : classes_) {
    if (u <= c.weight) return c.packets;
  }
  return classes_.back().packets;
}

}  // namespace rbs::traffic
