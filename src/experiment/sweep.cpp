#include "experiment/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/mc/types.hpp"
#include "experiment/dispatch_protocol.hpp"

namespace rbs::experiment {

int default_sweep_threads() {
  // Read-only environment probe, before any helper thread exists; no other
  // thread in this process mutates the environment.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("RBS_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(int threads, bool checked)
    : num_threads_{threads > 0 ? threads : default_sweep_threads()}, checked_{checked} {}

void SweepRunner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& point) {
  if (n == 0) return;

  // Checked mode: count executions per index. Each counter is touched by
  // whichever worker claims that index, so the array itself needs no lock.
  std::unique_ptr<check::mc::Atomic<std::uint32_t>[]> executions;
  if (checked_) {
    executions = std::make_unique<check::mc::Atomic<std::uint32_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) executions[i].store(0, std::memory_order_relaxed);
  }

  // One wrapper regardless of mode: checked counting and observer hooks
  // compose here, outside the work-distribution protocol.
  const auto instrumented = [&](std::size_t i, int worker) {
    if (checked_) executions[i].fetch_add(1, std::memory_order_relaxed);
    if (observer_.on_point_start) observer_.on_point_start(i, worker);
    point(i);
    if (observer_.on_point_done) observer_.on_point_done(i, worker);
  };

  const std::size_t workers = std::min(static_cast<std::size_t>(num_threads_), n);
  if (workers <= 1) {
    // Degenerate case: an in-order serial loop on the calling thread.
    for (std::size_t i = 0; i < n; ++i) instrumented(i, 0);
  } else {
    detail::SweepClaims claims;
    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    try {
      for (std::size_t w = 1; w < workers; ++w) {
        helpers.emplace_back([&claims, &instrumented, n, w] {
          detail::claim_loop(claims, n, static_cast<int>(w), instrumented);
        });
      }
    } catch (const std::exception&) {
      // Out of threads or memory: the caller is worker 0, so the helpers
      // already running and the caller still finish the batch.
    }
    detail::claim_loop(claims, n, 0, instrumented);
    for (std::thread& helper : helpers) helper.join();
    if (std::exception_ptr error = detail::take_error(claims)) std::rethrow_exception(error);
  }

  if (checked_) {
    // A throwing point aborts the batch early (remaining points legitimately
    // skipped), and that exception was already rethrown above — reaching
    // here means the batch claims full completion, so every index must have
    // run exactly once.
    for (std::size_t i = 0; i < n; ++i) {
      const auto count = executions[i].load(std::memory_order_relaxed);
      if (count != 1) {
        throw std::runtime_error("SweepRunner checked mode: point " + std::to_string(i) +
                                 " executed " + std::to_string(count) +
                                 " times (expected exactly once)");
      }
    }
  }
}

}  // namespace rbs::experiment
