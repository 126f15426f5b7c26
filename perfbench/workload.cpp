// One untraced batch of a benchmark workload, measured from outside by
// run_benchmark.py (wall clock, CPU time and peak RSS of this process).
//
//   workload --workload fig7 --seed 1 --threads 4
//       prints the batch's answers (compared with perfbench/expected/)
//   workload --workload fig7 --seed 1 --setup 0.1
//       builds and tears down the workload's largest world at zero horizon,
//       again and again for 0.1 s, and prints "setup_call_s <seconds>", the
//       mean time of one build and teardown
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "sweeps.hpp"

namespace {

using namespace rbs;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--threads N]\n"
               "       %s --workload NAME [--seed N] --setup SECONDS\n",
               argv0, argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<perfbench::Workload> workload;
  perfbench::SweepOptions options;
  double setup_seconds = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (std::strcmp(arg, "--workload") == 0) {
      workload = perfbench::parse_workload(value);
      if (!workload) usage(argv[0]);
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--threads") == 0) {
      options.threads = std::atoi(value);
    } else if (std::strcmp(arg, "--setup") == 0) {
      setup_seconds = std::strtod(value, nullptr);
      if (!(setup_seconds > 0)) usage(argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (!workload || options.threads < 1) usage(argv[0]);

  if (setup_seconds == 0) {
    const std::string answers = perfbench::run_sweep(*workload, options);
    std::fwrite(answers.data(), 1, answers.size(), stdout);
    return 0;
  }

  std::printf("setup_call_s %.9e\n",
              perfbench::setup_seconds_per_world(*workload, options.seed, setup_seconds));
  return 0;
}
