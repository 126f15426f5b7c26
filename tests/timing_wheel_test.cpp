// Property tests for the timing-wheel ready-queue backend.
//
// The wheel's contract is exact equivalence with the reference heap backend:
// any script of schedule / cancel / fire operations must produce a bitwise-
// identical fire order — including (time, seq) FIFO ties, cascade
// boundaries, and events past the wheel horizon. Each test here runs the
// same deterministic script against both backends and compares the full
// firing transcripts, then audits the wheel's bookkeeping against the live
// event pool.
#include "sim/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/auditor.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace rbs::sim {
namespace {

struct Firing {
  std::uint64_t id;
  std::int64_t t_ps;
  bool operator==(const Firing& other) const = default;
};

/// Horizon mix covering every wheel regime: within one level-0 bucket,
/// across level-0 buckets, level-1/2 spans (cascades), the exact level
/// window edges, and past the horizon (overflow heap).
std::int64_t pick_delta_ps(Rng& rng) {
  constexpr std::int64_t kBucket = TimingWheel::kBucketWidthPs;
  constexpr std::int64_t kL0Span = kBucket << TimingWheel::kBucketBits;
  constexpr std::int64_t kL1Span = kL0Span << TimingWheel::kBucketBits;
  switch (rng.uniform_int(0, 6)) {
    case 0: return rng.uniform_int(0, kBucket - 1);          // same / next bucket
    case 1: return rng.uniform_int(0, 16 * kBucket);         // nearby buckets
    case 2: return rng.uniform_int(0, kL0Span);              // level-0 lap
    case 3: return rng.uniform_int(0, kL1Span);              // level 1, cascades
    case 4: return kL0Span + rng.uniform_int(-2, 2);         // level window edge
    case 5: return rng.uniform_int(0, TimingWheel::kSpanPs); // anywhere in the wheel
    default:
      // Past the horizon: lands in the overflow heap, must still interleave
      // correctly with wheel events once the base catches up.
      return TimingWheel::kSpanPs + rng.uniform_int(0, 4 * kBucket);
  }
}

/// Self-reproducing event: records its firing and schedules a few children
/// with rng-chosen horizons. Because every rng draw happens inside a
/// callback, identical fire order across backends implies identical draws —
/// any divergence amplifies instead of hiding.
struct Node {
  Scheduler* sched;
  Rng* rng;
  std::vector<Firing>* fired;
  std::uint64_t* next_id;
  std::uint64_t id;
  int depth;

  void operator()() const {
    fired->push_back({id, sched->now().ps()});
    if (depth <= 0) return;
    const auto kids = rng->uniform_int(0, 2);
    for (std::int64_t k = 0; k < kids; ++k) {
      const std::uint64_t child = ++*next_id;
      sched->schedule_after(SimTime::picoseconds(pick_delta_ps(*rng)),
                            Node{sched, rng, fired, next_id, child, depth - 1});
    }
  }
};

std::vector<Firing> run_random_script(SchedulerBackend backend, std::uint64_t seed) {
  Scheduler sched{backend};
  Rng rng{seed};
  std::vector<Firing> fired;
  std::uint64_t next_id = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t id = ++next_id;
    sched.schedule_after(SimTime::picoseconds(pick_delta_ps(rng)),
                         Node{&sched, &rng, &fired, &next_id, id, 6});
  }
  sched.run();
  return fired;
}

// One level-1 bucket's width: an entry this far past the base skips level 0.
constexpr std::int64_t kLevel1BucketPs = TimingWheel::kBucketWidthPs << TimingWheel::kBucketBits;

/// Fills level-1 bucket `k` (counted from a zero base) with `n` entries.
void fill_level1_bucket(TimingWheel& wheel, std::int64_t k, std::size_t n, std::uint64_t& seq) {
  const auto t = SimTime::picoseconds(k * kLevel1BucketPs + 5);
  for (std::size_t i = 0; i < n; ++i) wheel.insert(ReadyEntry{t, seq++, 0});
}

TEST(TimingWheelStorage, DrainedHigherLevelBucketsPassTheirStorageOn) {
  constexpr std::size_t kN = 1000;
  constexpr std::int64_t kK = 20;
  TimingWheel wheel;
  std::vector<ReadyEntry> out;
  std::uint64_t seq = 0;
  for (std::int64_t k = 1; k <= kK; ++k) {
    fill_level1_bucket(wheel, k, kN, seq);
    while (!wheel.empty()) (void)wheel.drain_earliest_bucket(out);
    ASSERT_EQ(out.size(), kN);
    EXPECT_EQ(out.front().seq, seq - kN);
    out.clear();
  }
  EXPECT_GT(wheel.cascades(), 0u);
  // One level-0 bucket (every drain lands on the same index) and one spare,
  // each rounded up to a power of two: ~2N, where keeping every drained
  // bucket's capacity would hold K*N.
  EXPECT_LE(wheel.reserved_entries(), 3 * kN);
}

TEST(TimingWheelStorage, BucketsEmptiedByReapPassTheirStorageOn) {
  constexpr std::size_t kN = 1000;
  constexpr std::int64_t kK = 20;
  TimingWheel wheel;
  std::uint64_t seq = 0;
  for (std::int64_t k = 1; k <= kK; ++k) {
    fill_level1_bucket(wheel, k, kN, seq);
    EXPECT_EQ(wheel.remove_if([](const ReadyEntry&) { return true; }), kN);
    EXPECT_TRUE(wheel.empty());
  }
  EXPECT_LE(wheel.reserved_entries(), 2 * kN);
  // The storage still serves: a later bucket fills and drains normally.
  fill_level1_bucket(wheel, kK + 1, kN, seq);
  std::vector<ReadyEntry> out;
  while (!wheel.empty()) (void)wheel.drain_earliest_bucket(out);
  EXPECT_EQ(out.size(), kN);
}

TEST(TimingWheelBackend, RandomScriptsFireIdenticallyOnBothBackends) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto heap = run_random_script(SchedulerBackend::kHeap, seed);
    const auto wheel = run_random_script(SchedulerBackend::kWheel, seed);
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap, wheel) << "fire order diverged for seed " << seed;
  }
}

std::vector<Firing> run_cancellation_script(SchedulerBackend backend, std::uint64_t seed) {
  Scheduler sched{backend};
  Rng rng{seed};
  std::vector<Firing> fired;
  std::vector<Scheduler::EventHandle> handles;
  for (std::uint64_t i = 0; i < 512; ++i) {
    handles.push_back(sched.schedule_after(
        SimTime::picoseconds(pick_delta_ps(rng)),
        [&fired, &sched, i] { fired.push_back({i, sched.now().ps()}); }));
  }
  // A periodic canceller retires a deterministic pseudo-random slice of the
  // population while the run is underway (cancel() on already-fired events
  // is a no-op by contract, so no liveness tracking is needed).
  struct Canceller {
    Scheduler* sched;
    Rng* rng;
    std::vector<Scheduler::EventHandle>* handles;
    int rounds;
    void operator()() const {
      for (int c = 0; c < 24; ++c) {
        (*handles)[static_cast<std::size_t>(
                       rng->uniform_int(0, static_cast<std::int64_t>(handles->size()) - 1))]
            .cancel();
      }
      if (rounds > 0) {
        sched->schedule_after(SimTime::picoseconds(TimingWheel::kBucketWidthPs * 3),
                              Canceller{sched, rng, handles, rounds - 1});
      }
    }
  };
  sched.schedule_after(SimTime::picoseconds(1), Canceller{&sched, &rng, &handles, 40});
  sched.run();
  return fired;
}

TEST(TimingWheelBackend, CancellationsMatchAcrossBackendsAndReapTombstones) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    const auto heap = run_cancellation_script(SchedulerBackend::kHeap, seed);
    const auto wheel = run_cancellation_script(SchedulerBackend::kWheel, seed);
    ASSERT_FALSE(heap.empty());
    ASSERT_LT(heap.size(), 512u) << "script should cancel at least one pending event";
    EXPECT_EQ(heap, wheel) << "fire order diverged for seed " << seed;
  }
}

TEST(TimingWheelBackend, FifoTiesAcrossBucketBoundaries) {
  // Batches of events at identical timestamps straddling level-0 bucket
  // edges: the (time, seq) contract says each batch fires in schedule order,
  // on both backends, even though the wheel hands buckets back unsorted.
  for (const auto backend : {SchedulerBackend::kHeap, SchedulerBackend::kWheel}) {
    Scheduler sched{backend};
    std::vector<std::uint64_t> order;
    std::uint64_t id = 0;
    for (int bucket = 1; bucket <= 8; ++bucket) {
      for (std::int64_t offset : {-1, 0, 1}) {
        const auto t = SimTime::picoseconds(bucket * TimingWheel::kBucketWidthPs + offset);
        for (int dup = 0; dup < 4; ++dup) {
          const std::uint64_t my_id = id++;
          sched.schedule_at(t, [&order, my_id] { order.push_back(my_id); });
        }
      }
    }
    sched.run();
    ASSERT_EQ(order.size(), id);
    for (std::uint64_t i = 0; i < id; ++i) {
      ASSERT_EQ(order[i], i) << "backend " << scheduler_backend_name(backend)
                             << " broke FIFO order at position " << i;
    }
  }
}

TEST(TimingWheelBackend, HorizonEdgeEventsFireInOrder) {
  // kSpanPs - 1 is the last picosecond the wheel accepts from a base of
  // zero; kSpanPs and beyond start in the overflow heap and must still fire
  // in global time order once the base advances.
  for (const auto backend : {SchedulerBackend::kHeap, SchedulerBackend::kWheel}) {
    Scheduler sched{backend};
    std::vector<int> order;
    const auto at = [&](std::int64_t ps, int tag) {
      sched.schedule_at(SimTime::picoseconds(ps), [&order, tag] { order.push_back(tag); });
    };
    at(TimingWheel::kSpanPs + 5, 3);
    at(TimingWheel::kSpanPs - 1, 1);
    at(TimingWheel::kSpanPs, 2);
    at(2 * TimingWheel::kSpanPs, 4);
    at(7, 0);
    sched.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}))
        << "backend " << scheduler_backend_name(backend);
  }
}

TEST(TimingWheelBackend, AuditReconcilesWheelWithLivePool) {
  // Mid-run audits: wheel bucket contents + overflow + due window must
  // reconcile exactly with the event pool's live/cancelled bookkeeping.
  Scheduler sched{SchedulerBackend::kWheel};
  Rng rng{99};
  std::vector<Firing> fired;
  std::uint64_t next_id = 0;
  std::vector<Scheduler::EventHandle> handles;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t id = ++next_id;
    handles.push_back(sched.schedule_after(SimTime::picoseconds(pick_delta_ps(rng)),
                                           Node{&sched, &rng, &fired, &next_id, id, 4}));
  }
  for (int step = 1; step <= 32; ++step) {
    sched.run_until(SimTime::picoseconds(step * (TimingWheel::kSpanPs / 16)));
    if (step % 3 == 0) {
      for (int c = 0; c < 8; ++c) {
        handles[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]
            .cancel();
      }
    }
    check::AuditReport report;
    sched.audit(report);
    ASSERT_TRUE(report.clean()) << "step " << step << ": " << report.messages().front();
    const auto stats = sched.wheel_stats();
    EXPECT_EQ(stats.wheel_entries + stats.overflow_entries + stats.due_entries,
              sched.queue_entries());
  }
  sched.run();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.queue_entries(), 0u);
}

TEST(TimingWheelBackend, WheelStatsExposeOccupancyAndCascades) {
  Scheduler sched{SchedulerBackend::kWheel};
  // One event per level-0 bucket distance covering two laps of level 0:
  // the second lap must sit in level 1 and cascade down as the base advances.
  for (int i = 1; i <= 2 * TimingWheel::kBuckets; i += 16) {
    sched.schedule_at(SimTime::picoseconds(i * TimingWheel::kBucketWidthPs), [] {});
  }
  const auto before = sched.wheel_stats();
  EXPECT_GT(before.wheel_entries, 0u);
  EXPECT_GT(before.occupied_buckets, 0u);
  sched.run();
  const auto after = sched.wheel_stats();
  EXPECT_EQ(after.wheel_entries, 0u);
  EXPECT_EQ(after.occupied_buckets, 0u);
  EXPECT_GT(after.cascades, 0u) << "a two-lap schedule must cascade level-1 buckets";
}

}  // namespace
}  // namespace rbs::sim
