// Allocation guard for world set-up: building and tearing down a
// Simulation plus a Dumbbell, with or without a long-flow workload on it,
// must make a number of heap allocations that does not grow with the leaf
// or flow count, and free every one of them. Every bisection probe builds a
// fresh world, so a per-leaf or per-flow allocation is paid once per leaf
// or flow per probe.
//
// This file replaces the global operator new and operator delete with
// counting versions, which is why it is a test executable of its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "traffic/long_flow_workload.hpp"

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

/// Allocations made while building and tearing down one world that runs a
/// long-lived `flavor` flow on each of its `flows` leaves. With
/// `starts_only`, the world schedules one no-op event at each time a flow
/// would start, in the same order, and builds no flow: what the N start
/// events alone cost the scheduler's pending-event storage.
AllocCounts build_and_tear_down_with_flows(int flows, bool starts_only = false,
                                           tcp::TcpFlavor flavor = tcp::TcpFlavor::kNewReno) {
  net::DumbbellConfig cfg;
  cfg.num_leaves = flows;
  traffic::LongFlowWorkloadConfig workload_cfg;
  workload_cfg.tcp.flavor = flavor;
  std::vector<sim::SimTime> starts;
  if (starts_only) {
    sim::Simulation sim{1};
    net::Dumbbell topo{sim, cfg};
    const traffic::LongFlowWorkload workload{sim, topo, workload_cfg};
    for (int i = 0; i < workload.num_flows(); ++i) {
      starts.push_back(workload.source(i).start_time());
    }
  }
  g_counts = AllocCounts{};
  g_counting = true;
  {
    sim::Simulation sim{1};
    net::Dumbbell topo{sim, cfg};
    if (starts_only) {
      for (const sim::SimTime t : starts) sim.at(t, [] {}, sim::EventClass::kWorkload);
    } else {
      const traffic::LongFlowWorkload workload{sim, topo, workload_cfg};
    }
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

TEST(AllocationGuard, LongFlowsAllocateNothingBeyondTheirStartEvents) {
  // The workload's two blocks aside, a flow registers on its hosts and
  // builds its congestion control in place, whatever its flavor. What
  // remains is the scheduler storing each flow's start event, which grows
  // with the number of pending events rather than with flows, so it is
  // measured on its own.
  (void)build_and_tear_down_with_flows(50);
  for (const int flows : {50, 500}) {
    const AllocCounts starts = build_and_tear_down_with_flows(flows, /*starts_only=*/true);
    for (const tcp::TcpFlavor flavor : tcp::all_flavors()) {
      const AllocCounts world = build_and_tear_down_with_flows(flows, false, flavor);
      EXPECT_EQ(world.allocations, starts.allocations + 2)
          << tcp::flavor_name(flavor) << ", " << flows << " flows: " << world.allocations
          << " allocations with the workload, " << starts.allocations
          << " for its start events alone";
    }
  }
}

TEST(AllocationGuard, LongFlowWorldTeardownFreesEveryAllocation) {
  (void)build_and_tear_down_with_flows(50);
  for (const int flows : {1, 50, 500}) {
    const AllocCounts counts = build_and_tear_down_with_flows(flows);
    EXPECT_GT(counts.allocations, 0u) << flows << " flows";
    EXPECT_EQ(counts.frees, counts.allocations) << flows << " flows";
  }
}

}  // namespace
}  // namespace rbs
