#include "stats/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rbs::stats {

Histogram::Histogram(double lo, double hi, int bins) : lo_{lo}, hi_{hi} {
  assert(hi > lo && bins > 0);
  width_ = (hi - lo) / bins;
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void Histogram::add(double x, std::uint64_t weight) noexcept {
  auto idx = static_cast<std::int64_t>(std::floor((x - lo_) / width_));
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_center(int i) const noexcept {
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::density(int i) const noexcept {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[static_cast<std::size_t>(i)]) /
         (static_cast<double>(total_) * width_);
}

}  // namespace rbs::stats
