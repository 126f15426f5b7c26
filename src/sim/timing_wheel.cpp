#include "sim/timing_wheel.hpp"

#include <bit>

namespace rbs::sim {

TimingWheel::Level& TimingWheel::level_for(int l) {
  auto& level = levels_[static_cast<std::size_t>(l)];
  if (level == nullptr) level = std::make_unique<Level>();
  return *level;
}

void TimingWheel::insert(const ReadyEntry& entry) {
  const std::int64_t t = entry.time.ps();
  RBS_INVARIANT(t >= base_.ps(), "TimingWheel::insert before the wheel base");
  for (int l = 0; l < kLevels; ++l) {
    const int shift = level_shift(l);
    const std::int64_t abs_bucket = t >> shift;
    if (abs_bucket - (base_.ps() >> shift) >= kBuckets) continue;  // outside this level's lap
    const unsigned idx = static_cast<unsigned>(abs_bucket) & (kBuckets - 1);
    Level& level = level_for(l);
    auto& bucket = level.buckets[idx];
    if (bucket.empty()) {
      set_bit(level.bitmap, idx);
      if (bucket.capacity() == 0 && l != 0 && !spares_.empty()) {
        bucket = std::move(spares_.back());
        spares_.pop_back();
      }
    }
    bucket.push_back(entry);
    ++level.count;
    ++size_;
    return;
  }
  RBS_INVARIANT(false, "TimingWheel::insert past the wheel horizon");
}

int TimingWheel::next_occupied_distance(const Level& level, unsigned cur) noexcept {
  constexpr unsigned kWords = kBuckets / 64;
  const unsigned w0 = cur >> 6;
  const unsigned b0 = cur & 63;
  // Word containing `cur`, masked to bits at or above it; then the following
  // words in circular order; finally the bits below `cur` in the first word.
  if (const std::uint64_t m = level.bitmap[w0] >> b0; m != 0) {
    return static_cast<int>(std::countr_zero(m));
  }
  for (unsigned k = 1; k <= kWords; ++k) {
    const unsigned w = (w0 + k) & (kWords - 1);
    std::uint64_t word = level.bitmap[w];
    if (k == kWords) word &= b0 != 0 ? (std::uint64_t{1} << b0) - 1 : 0;
    if (word != 0) {
      return static_cast<int>(k * 64 - b0 + static_cast<unsigned>(std::countr_zero(word)));
    }
  }
  return -1;
}

std::int64_t TimingWheel::drain_earliest_bucket(std::vector<ReadyEntry>& out) {
  RBS_INVARIANT(size_ != 0, "TimingWheel::drain_earliest_bucket on an empty wheel");
  for (;;) {
    // The earliest occupied bucket across levels. High-to-low with a strict
    // compare, so a start-time tie picks the HIGHER level: its bucket may
    // hold events that belong inside the tied lower-level bucket, and must
    // cascade into it before that bucket drains.
    int best_level = -1;
    std::int64_t best_start = 0;
    for (int l = kLevels - 1; l >= 0; --l) {
      const Level* level = levels_[static_cast<std::size_t>(l)].get();
      if (level == nullptr || level->count == 0) continue;
      const int shift = level_shift(l);
      const std::int64_t cur_abs = base_.ps() >> shift;
      const int d = next_occupied_distance(*level, static_cast<unsigned>(cur_abs) & (kBuckets - 1));
      RBS_INVARIANT(d >= 0, "level count positive but bitmap empty");
      // One-lap invariant: every occupied bucket lies within [cur_abs,
      // cur_abs + 256), so the circular distance IS the linear offset.
      const std::int64_t start = (cur_abs + d) << shift;
      if (best_level < 0 || start < best_start) {
        best_level = l;
        best_start = start;
      }
    }

    Level& level = *levels_[static_cast<std::size_t>(best_level)];
    const unsigned idx =
        static_cast<unsigned>(best_start >> level_shift(best_level)) & (kBuckets - 1);
    auto& bucket = level.buckets[idx];
    base_ = SimTime::picoseconds(best_start);

    if (best_level == 0) {
      out.insert(out.end(), bucket.begin(), bucket.end());
      level.count -= bucket.size();
      size_ -= bucket.size();
      bucket.clear();  // keeps capacity for the bucket's next lap
      clear_bit(level.bitmap, idx);
      return best_start;
    }

    // Cascade: with the base advanced to the bucket start, every entry fits
    // one level down (they share the bucket's level-L prefix, so their
    // level-(L-1) offsets are all under one lap).
    ++cascades_;
    level.count -= bucket.size();
    size_ -= bucket.size();
    clear_bit(level.bitmap, idx);
    for (const ReadyEntry& entry : bucket) insert(entry);
    bucket.clear();
    release(bucket);
  }
}

std::size_t TimingWheel::occupied_buckets() const noexcept {
  std::size_t occupied = 0;
  for (const auto& level : levels_) {
    if (level == nullptr) continue;
    for (const std::uint64_t word : level->bitmap) {
      occupied += static_cast<std::size_t>(std::popcount(word));
    }
  }
  return occupied;
}

std::size_t TimingWheel::reserved_entries() const noexcept {
  std::size_t reserved = 0;
  for (const auto& level : levels_) {
    if (level == nullptr) continue;
    for (const auto& bucket : level->buckets) reserved += bucket.capacity();
  }
  for (const auto& spare : spares_) reserved += spare.capacity();
  return reserved;
}

}  // namespace rbs::sim
