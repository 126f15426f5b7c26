// Allocation guard for topology set-up: building and tearing down a
// Simulation plus a Dumbbell must make a number of heap allocations that
// does not grow with the leaf count, and free every one of them. Every
// bisection probe builds a fresh world, so a per-leaf allocation is paid
// once per leaf per probe.
//
// This file replaces the global operator new and operator delete with
// counting versions, which is why it is a test executable of its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"

namespace {

struct AllocCounts {
  std::size_t allocations{0};
  std::size_t frees{0};
  std::size_t bytes{0};
};

// Single-threaded test: plain globals suffice.
bool g_counting = false;
AllocCounts g_counts;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting) {
    ++g_counts.allocations;
    g_counts.bytes += size;
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting) ++g_counts.frees;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace rbs {
namespace {

/// Allocations made while building and tearing down one `leaves`-leaf world.
AllocCounts build_and_tear_down(int leaves) {
  net::DumbbellConfig cfg;
  cfg.num_leaves = leaves;
  g_counts = AllocCounts{};
  g_counting = true;
  {
    sim::Simulation sim{1};
    net::Dumbbell topo{sim, cfg};
  }
  g_counting = false;
  return g_counts;
}

TEST(AllocationGuard, CountingOperatorNewIsInstalled) {
  g_counts = AllocCounts{};
  g_counting = true;
  // Direct calls: a new-expression's allocation may be elided.
  void* probe = ::operator new(16);
  ::operator delete(probe);
  g_counting = false;
  EXPECT_EQ(g_counts.allocations, 1u);
  EXPECT_EQ(g_counts.frees, 1u);
}

TEST(AllocationGuard, DumbbellAllocationsDoNotGrowWithLeaves) {
  (void)build_and_tear_down(50);  // first use of any lazily built statics
  const AllocCounts small = build_and_tear_down(50);
  const AllocCounts large = build_and_tear_down(500);
  EXPECT_LE(large.allocations, small.allocations)
      << "50 leaves: " << small.allocations << " allocations (" << small.bytes
      << " B); 500 leaves: " << large.allocations << " (" << large.bytes << " B)";
}

TEST(AllocationGuard, DumbbellTeardownFreesEveryAllocation) {
  (void)build_and_tear_down(50);
  for (const int leaves : {1, 50, 500}) {
    const AllocCounts counts = build_and_tear_down(leaves);
    EXPECT_GT(counts.allocations, 0u) << leaves << " leaves";
    EXPECT_EQ(counts.frees, counts.allocations) << leaves << " leaves";
  }
}

}  // namespace
}  // namespace rbs
