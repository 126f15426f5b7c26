// Hierarchical timing wheel: the O(1)-schedule ready-queue backend.
//
// Four levels of 256 buckets each, keyed directly on picosecond SimTime.
// Level L buckets are 2^(26+8L) ps wide: level 0 resolves ~67 µs. The bucket
// width trades refill frequency against due-window size: narrow buckets make
// the Scheduler drain a bucket for nearly every fire (refill_due dominated
// the engine profile at 2^20), wide ones grow the sorted due heap the firing
// path pops from. At 2^26 a dumbbell steady state hands the due window a few
// dozen entries per drain and refills two orders of magnitude less often,
// the measured optimum (2^22..2^30 swept). The wheel as a whole spans 2^58
// ps ≈ 3.3 simulated days ahead of its base — far beyond any event horizon
// the TCP experiments produce (the longest timers are RTO backoffs in the
// hundreds of milliseconds). Events past the span overflow into a separate
// heap owned by the Scheduler.
//
// An entry is placed at the lowest level whose one-lap window from the wheel
// base still distinguishes its bucket: level L fits when
// (t >> shift(L)) - (base >> shift(L)) < 256. Draining always takes the
// occupied bucket with the earliest start time across all levels; when that
// bucket sits above level 0 its entries cascade down one level (they all fit
// level L-1 once the base advances to the bucket start) rather than firing
// directly, so events separate to level-0 granularity before the Scheduler
// sees them. Within a drained level-0 bucket entries are NOT sorted — the
// Scheduler re-sorts them through its due-window heap, which restores the
// exact (time, seq) FIFO order the deterministic-replay contract requires.
//
// The wheel never inspects event liveness: cancelled entries ride along as
// tombstones and the Scheduler filters them when a bucket drains, exactly as
// the reference heap backend does.
//
// Bucket storage follows the live entries. A level-0 bucket keeps its
// capacity when it drains, since the level laps every ~17 ms and the bucket
// will refill. A level-1 lap is ~4.4 s, longer than most runs, so a drained
// bucket above level 0 would hold its peak capacity unused for the rest of
// the run; instead it hands its storage to a spare list, from which the
// next higher-level bucket that fills takes it. The higher levels together
// then hold about as much as their fullest moment, not the sum of every
// bucket that ever filled.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/invariant.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace rbs::sim {

class TimingWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kBucketBits = 8;
  static constexpr int kBuckets = 1 << kBucketBits;
  static constexpr int kGranularityBits = 26;

  /// Right-shift that maps a picosecond time to its absolute bucket number
  /// at `level`.
  [[nodiscard]] static constexpr int level_shift(int level) noexcept {
    return kGranularityBits + level * kBucketBits;
  }

  /// Width in ps of one level-0 bucket — the resolution the wheel separates
  /// events to before handing them back.
  static constexpr std::int64_t kBucketWidthPs = std::int64_t{1} << kGranularityBits;

  /// Horizon: entries at or beyond base + span do not fit any level.
  /// (level_shift(kLevels), spelled out — the class is still incomplete here.)
  static constexpr std::int64_t kSpanPs = std::int64_t{1}
                                          << (kGranularityBits + kLevels * kBucketBits);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Earliest time the wheel can currently hold. Monotone non-decreasing
  /// except through rebase(); every stored entry has time >= base().
  [[nodiscard]] SimTime base() const noexcept { return base_; }

  /// True if `t` falls inside the top level's one-lap window, i.e. the wheel
  /// can hold it without ambiguity. Times beyond this belong in the
  /// Scheduler's overflow heap.
  [[nodiscard]] bool accepts(SimTime t) const noexcept {
    const int top = level_shift(kLevels - 1);
    return (t.ps() >> top) - (base_.ps() >> top) < kBuckets;
  }

  /// Files `entry` into the lowest level whose window resolves it.
  /// Pre: accepts(entry.time) and entry.time >= base().
  void insert(const ReadyEntry& entry);

  /// Finds the occupied bucket with the earliest start time across all
  /// levels, cascades it down until that bucket is at level 0, advances the
  /// base to its start, and appends its (unsorted, possibly tombstoned)
  /// entries to `out`. Returns the bucket's start time in ps: the caller may
  /// treat every event before start + kBucketWidthPs as fully delivered.
  /// Pre: !empty().
  std::int64_t drain_earliest_bucket(std::vector<ReadyEntry>& out);

  /// Moves the base without draining. Pre: empty(). Used when the wheel went
  /// idle and the next pending time (e.g. the overflow minimum) is far ahead:
  /// rebasing there keeps future inserts at low levels.
  void rebase(SimTime t) noexcept {
    RBS_INVARIANT(size_ == 0, "TimingWheel::rebase on a non-empty wheel");
    base_ = t;
  }

  /// Removes every entry matching `dead` (the Scheduler's tombstone sweep).
  /// Returns the number removed. Walks only occupied buckets via the
  /// bitmaps, so the sweep is O(live buckets), not O(kLevels * kBuckets) —
  /// TCP timer churn triggers this often enough for the difference to show.
  template <typename Pred>
  std::size_t remove_if(Pred&& dead) {
    std::size_t removed = 0;
    for (int l = 0; l < kLevels; ++l) {
      auto& level = levels_[static_cast<std::size_t>(l)];
      if (level == nullptr || level->count == 0) continue;
      std::size_t removed_here = 0;
      for (unsigned word = 0; word < level->bitmap.size(); ++word) {
        for (std::uint64_t bits = level->bitmap[word]; bits != 0; bits &= bits - 1) {
          const unsigned b = word * 64 + static_cast<unsigned>(std::countr_zero(bits));
          auto& bucket = level->buckets[b];
          std::size_t kept = 0;
          for (const ReadyEntry& entry : bucket) {
            if (!dead(entry)) bucket[kept++] = entry;
          }
          removed_here += bucket.size() - kept;
          bucket.resize(kept);
          if (kept == 0) {
            clear_bit(level->bitmap, b);
            if (l != 0) release(bucket);
          }
        }
      }
      level->count -= removed_here;
      removed += removed_here;
    }
    size_ -= removed;
    return removed;
  }

  /// Visits every stored entry (any order) — destructor sweeps, audits.
  template <typename F>
  void for_each(F&& fn) const {
    for (int l = 0; l < kLevels; ++l) {
      const auto& level = levels_[static_cast<std::size_t>(l)];
      if (level == nullptr) continue;
      for (int b = 0; b < kBuckets; ++b) {
        for (const ReadyEntry& entry : level->buckets[static_cast<std::size_t>(b)]) {
          fn(l, b, entry);
        }
      }
    }
  }

  /// Total higher-level buckets cascaded down since construction (telemetry).
  [[nodiscard]] std::uint64_t cascades() const noexcept { return cascades_; }

  /// Currently occupied buckets across all levels (telemetry gauge).
  [[nodiscard]] std::size_t occupied_buckets() const noexcept;

  /// Entries the wheel has storage for: the capacity of every bucket plus
  /// the spare list. Tests use it to check that storage is reused.
  [[nodiscard]] std::size_t reserved_entries() const noexcept;

 private:
  using Bitmap = std::array<std::uint64_t, kBuckets / 64>;

  struct Level {
    std::array<std::vector<ReadyEntry>, kBuckets> buckets;
    Bitmap bitmap{};  // bit b set iff buckets[b] is non-empty
    std::size_t count{0};
  };

  static void set_bit(Bitmap& bm, unsigned idx) noexcept {
    bm[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  static void clear_bit(Bitmap& bm, unsigned idx) noexcept {
    bm[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }

  /// Circular distance (in buckets, 0-based) from position `cur` to the next
  /// occupied bucket at this level; -1 if the level is empty.
  [[nodiscard]] static int next_occupied_distance(const Level& level, unsigned cur) noexcept;

  Level& level_for(int l);

  /// Moves an emptied higher-level bucket's storage to the spare list.
  void release(std::vector<ReadyEntry>& bucket) {
    if (bucket.capacity() != 0) spares_.push_back(std::move(bucket));
    bucket = {};
  }

  SimTime base_{};
  std::size_t size_{0};
  std::uint64_t cascades_{0};
  // Lazily allocated: a Scheduler on the heap backend (or an idle wheel
  // level) pays four null pointers, not 256 bucket vectors per level.
  std::array<std::unique_ptr<Level>, kLevels> levels_{};
  // Empty vectors with capacity, released by drained buckets above level 0
  // and taken by the next one that fills.
  std::vector<std::vector<ReadyEntry>> spares_;
};

}  // namespace rbs::sim
