// Parallel sweep runner: executes independent experiment points on worker
// threads with a deterministic result contract.
//
// Every reproduction figure is a batch of independent simulations — one per
// (scenario, seed, buffer-size) point. Each point builds its own
// sim::Simulation (scheduler + root RNG forked from the point's seed), so a
// point computes bitwise the same result whether it runs serially,
// concurrently, or on a machine with a different core count. The runner only
// changes *when* points execute, never *what* they compute: point i writes
// only results[i], and nothing in src/ has mutable global state (asserted by
// the parallel-vs-serial equivalence tests in tests/sweep_test.cpp).
//
// Each batch spawns its own helper threads, works as worker 0 on the calling
// thread, and joins the helpers before returning; points are claimed one
// index at a time off a mutex-guarded cursor (experiment/dispatch_protocol.hpp).
// A point is a simulation of milliseconds to minutes, so the per-batch spawn
// and the per-point lock are noise next to it.
//
// Thread count: explicit argument > RBS_THREADS env var > hardware
// concurrency. A single-threaded runner degenerates to an in-order serial
// loop on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace rbs::experiment {

/// Worker threads a sweep uses when not told otherwise: the RBS_THREADS
/// environment variable if set to a positive integer, else
/// std::thread::hardware_concurrency().
[[nodiscard]] int default_sweep_threads();

/// Observation hooks around each sweep point, for progress display and
/// profiling (see telemetry::SweepProfile). Hooks fire on worker threads —
/// possibly several at once — so implementations must synchronize
/// internally. `worker` is the executing worker's index in
/// [0, min(threads(), n)); worker 0 is the calling thread, and the serial
/// fallback reports worker 0. on_point_done does not fire for a
/// point that threw (its exception aborts the batch and is rethrown).
struct SweepObserver {
  std::function<void(std::size_t index, int worker)> on_point_start;
  std::function<void(std::size_t index, int worker)> on_point_done;
};

/// Runs batches of independent experiment points on up to threads() worker
/// threads: the caller is worker 0, and each batch spawns and joins its own
/// helpers.
class SweepRunner {
 public:
  /// threads <= 0 selects default_sweep_threads(). `checked` enables the
  /// sweep's own invariant audit: every batch tracks per-index execution
  /// counts and throws std::runtime_error if any point ran zero or multiple
  /// times (a broken work-distribution protocol would otherwise surface as
  /// silently wrong results). Costs one atomic increment per point.
  explicit SweepRunner(int threads = 0, bool checked = false);

  [[nodiscard]] int threads() const noexcept { return num_threads_; }
  [[nodiscard]] bool checked() const noexcept { return checked_; }

  /// Installs (or clears, with {}) the observation hooks. Must not be
  /// called while a batch is running.
  void set_observer(SweepObserver observer) { observer_ = std::move(observer); }

  /// Runs point(i) for every i in [0, n) on min(threads(), n) workers (the
  /// calling thread works too), and blocks until all complete. `point` must
  /// confine its writes to per-index storage. The first exception thrown by
  /// a point is rethrown here after all workers drain.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& point);

  /// Maps i -> point(i) into a vector in index order. R must be default-
  /// constructible and movable; the output is identical to a serial loop
  /// regardless of interleaving.
  template <typename R, typename F>
  std::vector<R> map(std::size_t n, F&& point) {
    static_assert(!std::is_same_v<R, bool>, "map<bool> would race on packed bits");
    std::vector<R> out(n);
    run_indexed(n, [&](std::size_t i) { out[i] = point(i); });
    return out;
  }

 private:
  int num_threads_;
  bool checked_;
  SweepObserver observer_;
};

}  // namespace rbs::experiment
