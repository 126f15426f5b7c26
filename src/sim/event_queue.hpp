// Shared ready-queue primitives for the scheduler's pluggable backends.
//
// Both backends order events by (time, sequence): the sequence number breaks
// time ties in FIFO schedule order, which is what makes runs bit-for-bit
// reproducible. ReadyEntry is the small trivially-copyable record both
// backends move around; EventHeap is the array-backed 4-ary implicit heap
// the kHeap backend uses as its whole queue and the kWheel backend reuses
// twice — as the sorted "due" window at the front and as the far-future
// overflow behind the wheel horizon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/event_class.hpp"
#include "sim/time.hpp"

namespace rbs::sim {

/// Which ready-queue structure a Scheduler uses. Fire order is identical —
/// the backends differ only in cost per operation.
///
///  * kHeap: one 4-ary heap over all pending events; O(log n) per
///    schedule/fire. The reference backend.
///  * kWheel: hierarchical timing wheel (see sim/timing_wheel.hpp) with a
///    small due-window heap in front and an overflow heap behind the wheel
///    horizon; O(1) schedule for the dense near-future events that dominate
///    packet simulations, with sorting deferred to bucket granularity.
///  * kAuto: resolved at Scheduler construction from the caller's
///    schedule-horizon hint (see resolve_scheduler_backend in
///    sim/scheduler.hpp): workloads whose whole schedule fits one wheel
///    bucket get the heap, everything else the wheel. Scheduler::backend()
///    always reports the resolved value, never kAuto.
enum class SchedulerBackend : std::uint8_t {
  kHeap = 0,
  kWheel,
  kAuto,
};

[[nodiscard]] constexpr const char* scheduler_backend_name(SchedulerBackend b) noexcept {
  switch (b) {
    case SchedulerBackend::kHeap:
      return "heap";
    case SchedulerBackend::kAuto:
      return "auto";
    case SchedulerBackend::kWheel:
      break;
  }
  return "wheel";
}

/// Trivially-copyable queue entry; `seq` breaks time ties in FIFO order.
/// The EventClass tag rides in what would otherwise be padding, so the
/// entry stays 24 bytes. The explicit tail makes all 24 bytes live, so a
/// copy is three 8-byte moves; with 21 live bytes the compiler copies a
/// 16-byte block plus an overlapping 8-byte one, and reloading that stalls
/// store forwarding in the due heap's pop_min.
struct ReadyEntry {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t slot;
  EventClass cls{EventClass::kGeneric};
  std::uint8_t pad_[3]{};
};
static_assert(sizeof(ReadyEntry) == 24, "EventClass tag must fit in ReadyEntry padding");
static_assert(std::has_unique_object_representations_v<ReadyEntry>,
              "ReadyEntry must have no padding bytes");

[[nodiscard]] inline bool ready_entry_less(const ReadyEntry& a, const ReadyEntry& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// Array-backed 4-ary implicit min-heap of ReadyEntry ordered by
/// (time, seq). The wider fan-out trades comparisons for ~half the
/// cache-missing levels of a binary heap, which dominates at the
/// 10^4–10^5-entry queues the TCP experiments produce.
class EventHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// The (time, seq)-least entry. The heap must be non-empty.
  [[nodiscard]] const ReadyEntry& min() const noexcept { return entries_.front(); }

  void push(ReadyEntry entry) {
    std::size_t i = entries_.size();
    entries_.push_back(entry);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!ready_entry_less(entry, entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = entry;
  }

  ReadyEntry pop_min() {
    const ReadyEntry top = entries_.front();
    const ReadyEntry last = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) {
      entries_[0] = last;
      sift_down(0);
    }
    return top;
  }

  /// Removes every entry matching `dead` in one O(n) sweep, then rebuilds
  /// the heap invariant bottom-up. Returns the number removed. Ordering
  /// semantics are unchanged: pops still come out in (time, seq) order.
  template <typename Pred>
  std::size_t remove_if(Pred&& dead) {
    std::size_t kept = 0;
    for (const ReadyEntry& entry : entries_) {
      if (!dead(entry)) entries_[kept++] = entry;
    }
    const std::size_t removed = entries_.size() - kept;
    entries_.resize(kept);
    if (entries_.size() > 1) {
      for (std::size_t i = (entries_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
    }
    return removed;
  }

  /// Raw entries in heap (not sorted) order, for destructor sweeps and the
  /// invariant auditor.
  [[nodiscard]] const std::vector<ReadyEntry>& entries() const noexcept { return entries_; }

  /// True if every entry sorts at or after its 4-ary parent.
  [[nodiscard]] bool heap_order_ok() const noexcept {
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (ready_entry_less(entries_[i], entries_[(i - 1) / 4])) return false;
    }
    return true;
  }

 private:
  void sift_down(std::size_t i) noexcept {
    const std::size_t n = entries_.size();
    const ReadyEntry entry = entries_[i];
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (ready_entry_less(entries_[c], entries_[best])) best = c;
      }
      if (!ready_entry_less(entries_[best], entry)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = entry;
  }

  std::vector<ReadyEntry> entries_;
};

}  // namespace rbs::sim
