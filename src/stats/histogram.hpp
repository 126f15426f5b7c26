// Fixed-bin histogram with a normalized density view.
#pragma once

#include <cstdint>
#include <vector>

namespace rbs::stats {

/// Histogram over [lo, hi) with `bins` equal-width bins. Out-of-range values
/// are clamped into the first/last bin so mass is never lost.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void add(double x, std::uint64_t weight = 1) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] int bins() const noexcept { return static_cast<int>(counts_.size()); }
  [[nodiscard]] double bin_width() const noexcept { return width_; }
  [[nodiscard]] double bin_center(int i) const noexcept;
  [[nodiscard]] std::uint64_t bin_count(int i) const noexcept {
    return counts_[static_cast<std::size_t>(i)];
  }

  /// Probability density at bin i (integrates to ~1 over the range).
  [[nodiscard]] double density(int i) const noexcept;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_{0};
};

}  // namespace rbs::stats
