// Slab-allocated storage for scheduled events.
//
// The scheduler's hot path used to pay two heap allocations per event (a
// shared_ptr control block plus a std::function capture). EventPool removes
// both: event callbacks live in fixed-size slots carved out of large slabs,
// recycled through an intrusive free list, with a per-slot generation
// counter so cancellation handles stay O(1) and safe without shared
// ownership.
//
// Callables larger than a slot's inline storage spill into a second slab
// class of "big" slots (two cache lines), recycled through their own free
// list — the per-packet link events capture a 64-byte Packet and would
// otherwise pay a malloc/free round-trip each, which dominated the engine's
// per-event cost. Only captures beyond even a big slot (none in this
// repository) fall back to a heap allocation owned by the slot.
//
// Slots never move once allocated (slabs are chunked, not reallocated), so
// a callback may safely schedule further events — and thereby grow the pool
// — while it is being invoked from its own slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"

namespace rbs::sim {

/// Recycling pool of event slots with inline callback storage.
class EventPool {
  RBS_THREAD_CONFINED(
      "owned by one Scheduler; slots are armed, fired, and recycled on the "
      "owning simulation thread only — handing a Slot reference to another "
      "thread (or past a recycle point) is the R7 hazard rbs-analyze flags.");

 public:
  /// Sentinel slot index ("no slot").
  static constexpr std::uint32_t kNullIndex = 0xffff'ffffu;
  /// Callables up to this size (and max_align_t alignment) are stored
  /// inline; larger captures borrow a big slot. 40 bytes covers a
  /// std::function (32 on libstdc++) and most lambdas in this repository,
  /// while keeping the whole slot to a single 64-byte cache line.
  static constexpr std::size_t kInlineBytes = 40;
  /// Big-slot capacity: enough for the link events' [this, Packet, ...]
  /// captures (8 + 64 + 8 bytes) with room to spare, two cache lines total.
  static constexpr std::size_t kBigBytes = 120;

  /// One event's storage: type-erased callable + lifecycle state.
  class Slot {
   public:
    /// Calls the stored callable. The slot must hold one.
    void invoke() { invoke_(storage_); }

    /// Destroys the stored callable (releasing captured state and any big
    /// slot it borrowed); idempotent.
    void destroy_callback() noexcept {
      if (destroy_ != nullptr) {
        destroy_(storage_);
        destroy_ = nullptr;
        invoke_ = nullptr;
      }
    }

    /// An armed slot holds an event that is scheduled and not cancelled.
    /// The flag shares a word with the generation counter (bit 0) so the
    /// slot packs into one cache line.
    [[nodiscard]] bool armed() const noexcept { return (gen_armed_ & 1u) != 0; }
    void arm() noexcept { gen_armed_ |= 1u; }
    void disarm() noexcept { gen_armed_ &= ~1u; }

    /// Bumped on every release; lets handles detect slot reuse. A stale
    /// handle would need 2^31 reuses of one slot to alias — out of reach
    /// for any run this simulator performs.
    [[nodiscard]] std::uint32_t generation() const noexcept { return gen_armed_ >> 1; }

   private:
    friend class EventPool;
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    void (*invoke_)(void*) = nullptr;
    void (*destroy_)(void*) noexcept = nullptr;
    std::uint32_t gen_armed_ = 0;  // bits 31..1: generation, bit 0: armed
    std::uint32_t next_free_ = kNullIndex;
  };
  static_assert(sizeof(Slot) == 64, "one event slot should fill exactly one cache line");

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  /// Hands out an empty slot (from the free list, growing by one slab when
  /// exhausted). The caller must emplace() a callback and arm() it.
  std::uint32_t allocate() {
    if (free_head_ == kNullIndex) grow();
    const std::uint32_t idx = free_head_;
    Slot& s = (*this)[idx];
    free_head_ = s.next_free_;
    ++allocated_;
    return idx;
  }

  /// Stores `fn` in slot `idx`, replacing nothing (the slot must be empty).
  /// Small callables live inline in the slot; larger ones borrow a big slot
  /// (returned when the callback is destroyed); oversized ones cost one
  /// owned heap allocation.
  template <typename F>
  void emplace(std::uint32_t idx, F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    Slot& s = (*this)[idx];
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage_)) Fn(std::forward<F>(fn));
      s.invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      s.destroy_ = [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); };
    } else if constexpr (sizeof(Fn) <= kBigBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      // Spill into a recycled big slot; the inline storage holds the
      // reference the invoke/destroy thunks chase.
      const std::uint32_t big = big_allocate();
      ::new (big_storage(big)) Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(s.storage_)) BigRef{this, big};
      s.invoke_ = [](void* p) {
        const BigRef ref = *std::launder(reinterpret_cast<BigRef*>(p));
        (*std::launder(reinterpret_cast<Fn*>(ref.pool->big_storage(ref.index))))();
      };
      s.destroy_ = [](void* p) noexcept {
        const BigRef ref = *std::launder(reinterpret_cast<BigRef*>(p));
        std::launder(reinterpret_cast<Fn*>(ref.pool->big_storage(ref.index)))->~Fn();
        ref.pool->big_release(ref.index);
      };
    } else {
      // Oversized capture: the slot owns a single heap-allocated copy.
      ::new (static_cast<void*>(s.storage_)) Fn*(new Fn(std::forward<F>(fn)));
      s.invoke_ = [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); };
      s.destroy_ = [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); };
    }
  }

  /// Destroys the slot's callback (if still present), invalidates handles
  /// via the generation counter, and recycles the slot.
  void release(std::uint32_t idx) noexcept {
    Slot& s = (*this)[idx];
    s.destroy_callback();
    s.gen_armed_ = (s.gen_armed_ | 1u) + 1u;  // disarm and bump the generation
    s.next_free_ = free_head_;
    free_head_ = idx;
    --allocated_;
  }

  [[nodiscard]] Slot& operator[](std::uint32_t idx) noexcept {
    return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)];
  }
  [[nodiscard]] const Slot& operator[](std::uint32_t idx) const noexcept {
    return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)];
  }

  /// Slots currently handed out (live + cancelled-but-unreaped events).
  [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }
  /// Total slots ever created; bounded-memory tests assert on this.
  [[nodiscard]] std::size_t capacity() const noexcept { return slabs_.size() * kSlabSize; }

  /// Big slots currently lent to oversized callbacks / ever created.
  /// Bounded-memory tests assert that churn recycles these too.
  [[nodiscard]] std::size_t big_allocated() const noexcept { return big_allocated_; }
  [[nodiscard]] std::size_t big_capacity() const noexcept {
    return big_slabs_.size() * kBigSlabSize;
  }

 private:
  static constexpr std::size_t kSlabBits = 9;  // 512 slots (32 KiB) per slab
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabBits;
  static constexpr std::size_t kBigSlabBits = 8;  // 256 big slots (32 KiB) per slab
  static constexpr std::size_t kBigSlabSize = std::size_t{1} << kBigSlabBits;

  /// Two-cache-line home for one oversized callable.
  struct BigSlot {
    alignas(std::max_align_t) unsigned char storage[kBigBytes];
    std::uint32_t next_free = kNullIndex;
  };
  static_assert(sizeof(BigSlot) == 128, "a big slot should fill exactly two cache lines");

  /// What a spilled slot's inline storage holds: where the callable went.
  struct BigRef {
    EventPool* pool;
    std::uint32_t index;
  };
  static_assert(sizeof(BigRef) <= kInlineBytes);

  void grow() {
    const auto base = static_cast<std::uint32_t>(capacity());
    // Default-initialized: the member initializers set every field a free
    // slot needs, so value-initializing would zero-fill 32 KiB for nothing.
    slabs_.push_back(std::make_unique_for_overwrite<Slot[]>(kSlabSize));
    // Thread the new slab onto the free list in ascending order so freshly
    // grown pools hand out contiguous slots (better cache locality).
    Slot* slab = slabs_.back().get();
    for (std::size_t i = 0; i + 1 < kSlabSize; ++i) {
      slab[i].next_free_ = base + static_cast<std::uint32_t>(i) + 1;
    }
    slab[kSlabSize - 1].next_free_ = free_head_;
    free_head_ = base;
  }

  std::uint32_t big_allocate() {
    if (big_free_head_ == kNullIndex) grow_big();
    const std::uint32_t idx = big_free_head_;
    big_free_head_ = big_slot(idx).next_free;
    ++big_allocated_;
    return idx;
  }

  void big_release(std::uint32_t idx) noexcept {
    big_slot(idx).next_free = big_free_head_;
    big_free_head_ = idx;
    --big_allocated_;
  }

  [[nodiscard]] BigSlot& big_slot(std::uint32_t idx) noexcept {
    return big_slabs_[idx >> kBigSlabBits][idx & (kBigSlabSize - 1)];
  }
  [[nodiscard]] void* big_storage(std::uint32_t idx) noexcept {
    return big_slot(idx).storage;
  }

  void grow_big() {
    const auto base = static_cast<std::uint32_t>(big_capacity());
    big_slabs_.push_back(std::make_unique_for_overwrite<BigSlot[]>(kBigSlabSize));
    BigSlot* slab = big_slabs_.back().get();
    for (std::size_t i = 0; i + 1 < kBigSlabSize; ++i) {
      slab[i].next_free = base + static_cast<std::uint32_t>(i) + 1;
    }
    slab[kBigSlabSize - 1].next_free = big_free_head_;
    big_free_head_ = base;
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t free_head_ = kNullIndex;
  std::size_t allocated_ = 0;
  std::vector<std::unique_ptr<BigSlot[]>> big_slabs_;
  std::uint32_t big_free_head_ = kNullIndex;
  std::size_t big_allocated_ = 0;
};

}  // namespace rbs::sim
