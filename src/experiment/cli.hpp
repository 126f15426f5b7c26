// Minimal command-line handling shared by the bench binaries.
//
// Every bench supports:
//   --full       paper-scale parameters (slower, closer to published setup)
//   --csv DIR    also write machine-readable CSV into DIR
//   --seed N     override the base RNG seed
//   --threads N  worker threads for parallel sweeps (0 = RBS_THREADS env
//                var, else hardware concurrency; results are bitwise
//                identical for any thread count)
//
// Numbers are parsed strictly (parse_int / parse_double below, also used by
// rbsim): a value that is not wholly a number in range prints one
// diagnostic line and exits 2.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace rbs::experiment {

/// Strict base-10 integer parse: the whole of `text` must be an integer that
/// fits a long long ("1e12", "0.5", "nan" and "" are rejected).
[[nodiscard]] inline bool parse_int(const std::string& text, long long& out) noexcept {
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

/// Strict number parse: the whole of `text` must be a finite number ("abc",
/// "", "nan", "inf" and "1e999" are rejected).
[[nodiscard]] inline bool parse_double(const std::string& text, double& out) noexcept {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(out);
}

struct CliOptions {
  bool full{false};
  std::string csv_dir;  ///< empty = no CSV output
  std::uint64_t seed{1};
  int threads{0};  ///< sweep workers; 0 = default_sweep_threads()

  [[nodiscard]] bool want_csv() const noexcept { return !csv_dir.empty(); }
};

/// Parses the common flags; exits 2 with a message on unknown arguments and
/// on a --seed or --threads value that is not an integer in range.
inline CliOptions parse_cli(int argc, char** argv, const char* description) {
  CliOptions opts;
  const auto int_arg = [argv](const char* flag, const char* text, long long hi) {
    long long v = 0;
    if (!parse_int(text, v) || v < 0 || v > hi) {
      std::fprintf(stderr, "%s: bad %s '%s' (want an integer in [0, %lld])\n", argv[0], flag,
                   text, hi);
      std::exit(2);
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--full") == 0) {
      opts.full = true;
    } else if (std::strcmp(arg, "--csv") == 0 && i + 1 < argc) {
      opts.csv_dir = argv[++i];
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      opts.seed = static_cast<std::uint64_t>(
          int_arg("--seed", argv[++i], std::numeric_limits<long long>::max()));
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      opts.threads = static_cast<int>(
          int_arg("--threads", argv[++i], std::numeric_limits<int>::max()));
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf("%s\n\nusage: %s [--full] [--csv DIR] [--seed N] [--threads N]\n", description,
                  argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg);
      std::exit(2);
    }
  }
  return opts;
}

}  // namespace rbs::experiment
