// The benchmark's workloads: the paper-artifact sweeps of bench/fig7_*,
// bench/fig8_* and bench/fig_cca_matrix, at a scale
// where one batch takes a few seconds on four threads. Each batch goes
// through the public experiment calls the figure binaries use (the sweep
// runner, the min-buffer bisections, apply_cca_profile); sweeps.cpp lists
// where a batch departs from its figure so that its cost does not depend
// on the seed.
//
// A batch's answers come back as text whose bytes depend only on the seed
// (the sweep runner's bitwise serial/parallel contract), so the runner can
// compare them with the pinned outputs under perfbench/expected/.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "experiment/long_flow_experiment.hpp"
#include "experiment/short_flow_experiment.hpp"
#include "experiment/sweep.hpp"
#include "net/dumbbell.hpp"

namespace rbs::perfbench {

enum class Workload : std::uint8_t { kFig7, kFig8, kCcaMatrix };

inline constexpr std::array<Workload, 3> kAllWorkloads{Workload::kFig7, Workload::kFig8,
                                                       Workload::kCcaMatrix};

[[nodiscard]] const char* workload_name(Workload w) noexcept;
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name) noexcept;

/// Receives the simulation-run boundaries of a traced replay. Calls come
/// from sweep worker threads, several at once; the runs of one sweep point
/// are sequential on one thread.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  /// A simulation run of sweep point `point` begins. Where the experiment
  /// API offers a per-probe hook (BufferProbePrepare) this fires once per
  /// probe, and a probe's run lasts until the next begin or end; a
  /// bisection without such a hook is one run from begin to end.
  virtual void run_begin(std::size_t point) = 0;
  /// The run opened last on `point` has returned.
  virtual void run_end(std::size_t point) = 0;
};

struct SweepOptions {
  std::uint64_t seed{1};
  int threads{1};
  /// Traced replay only: run boundaries and per-point observer. With both
  /// left empty the batch runs exactly as an untraced figure would.
  RunObserver* runs{nullptr};
  experiment::SweepObserver points{};
};

/// Runs one batch of the workload's sweep and returns its answers, one line
/// per sweep point.
[[nodiscard]] std::string run_sweep(Workload w, const SweepOptions& options);

/// Mean time in seconds of one build and teardown of the workload's largest
/// world, through the same run_*_experiment call its sweep makes with
/// warm-up and measurement set to zero, repeated for at least `seconds`.
[[nodiscard]] double setup_seconds_per_world(Workload w, std::uint64_t seed, double seconds);

/// The configuration of one run_*_experiment call.
using WorldConfig =
    std::variant<experiment::LongFlowExperimentConfig, experiment::ShortFlowExperimentConfig>;

/// The world setup_seconds_per_world builds: the workload's largest, with
/// warm-up and measurement set to zero.
[[nodiscard]] WorldConfig setup_world(Workload w, std::uint64_t seed);

/// The dumbbell a run of `cfg` builds, field for field as run_*_experiment
/// fills it in.
[[nodiscard]] net::DumbbellConfig dumbbell_config(const experiment::LongFlowExperimentConfig& cfg);
[[nodiscard]] net::DumbbellConfig dumbbell_config(const experiment::ShortFlowExperimentConfig& cfg);

}  // namespace rbs::perfbench
