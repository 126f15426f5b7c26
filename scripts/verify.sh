#!/usr/bin/env bash
# Full verification pass:
#   0. preflight: every tool the pass needs must exist up front; a missing
#      tool is a hard failure with a named diagnostic, never a silent skip
#   1. tier-1: RelWithDebInfo build + complete ctest suite
#   2. determinism + semantics analysis: rbs-analyze rules R1-R12 against
#      the checked-in baseline, plus the analyzer's own fixture corpus
#   3. bench smoke: one short repetition of the engine microbenchmarks
#   4. rbsim smoke (scripts/rbsim_smoke.sh, shared with CI): a --faults run
#      and a malformed schedule, one instrumented run whose trace, metrics
#      and flow-stats artifacts check_telemetry.py validates, one short run
#      per modern congestion-control flavor, a trace replay under the
#      invariant auditor, and hostile inputs that must exit 2 within 10 s
#   5. ASan/UBSan + RBS_CHECKED: rebuild with AddressSanitizer +
#      UndefinedBehaviorSanitizer and the hot-path invariant macros armed,
#      run the complete test suite
#   6. TSAN: rebuild scheduler + sweep runner under ThreadSanitizer and run
#      the concurrency-sensitive tests (scheduler_test, sweep_test,
#      timing_wheel_test, property_test, dispatch_stress_test)
#   7. model check: rebuild with RBS_MODEL_CHECK=ON (instrumentation is
#      per-target in tests/mc/ — production libraries are untouched) and
#      run the interleaving explorer: harness conformance, exhaustive
#      claim-protocol models, mutation kills
#   8. thread-safety annotations: clang++ -Wthread-safety positive +
#      compile-fail harness (scripts/check_thread_safety.py). Needs a
#      clang++ binary; skipped loudly when none exists (the analysis is
#      Clang-only — there is nothing equivalent to run under GCC).
#
# Usage: scripts/verify.sh [jobs]
#
# gnuplot is only needed to render the .gp figure scripts the bench targets
# emit; set RBS_VERIFY_ALLOW_MISSING_GNUPLOT=1 to run the pass without it.
# The opt-out is printed loudly — there is no silent skip.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== [0/8] preflight: required tools ==="
missing=0
for tool in cmake ctest python3 gnuplot; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    if [[ "$tool" == gnuplot && "${RBS_VERIFY_ALLOW_MISSING_GNUPLOT:-0}" == 1 ]]; then
      echo "verify: WARNING: 'gnuplot' not found; figure rendering disabled" \
           "(RBS_VERIFY_ALLOW_MISSING_GNUPLOT=1)" >&2
      continue
    fi
    case "$tool" in
      cmake)   why="configures and drives every build in this pass" ;;
      ctest)   why="runs the test suites" ;;
      python3) why="runs the semantics analyzer and telemetry validation" ;;
      gnuplot) why="renders emitted .gp figure scripts (set RBS_VERIFY_ALLOW_MISSING_GNUPLOT=1 to proceed without figures)" ;;
    esac
    echo "verify: FATAL: required tool '$tool' not found in PATH — $why" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "verify: aborting before any build step; install the tools above" >&2
  exit 1
fi

echo "=== [1/8] tier-1 build + tests ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [2/8] determinism + semantics analysis (rbs-analyze + fixture corpus) ==="
# Preflight: the analyzer package must be importable before we trust a pass.
PYTHONPATH=scripts python3 -c "import rbs_analyze" || {
  echo "verify: FATAL: scripts/rbs_analyze is not importable" >&2
  exit 1
}
cmake --build build --target analyze
python3 scripts/run_analyzer_fixtures.py

echo "=== [3/8] bench smoke ==="
cmake --build build -j "$JOBS" --target bench_smoke

echo "=== [4/8] rbsim smoke: faults, telemetry, CCA, trace replay, hostile inputs ==="
scripts/rbsim_smoke.sh

echo "=== [5/8] ASan/UBSan + RBS_CHECKED: full test suite ==="
cmake -B build-asan -S . -DRBS_ASAN=ON -DRBS_CHECKED=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "=== [6/8] ThreadSanitizer: concurrency tests ==="
cmake -B build-tsan -S . -DRBS_TSAN=ON >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target scheduler_test sweep_test timing_wheel_test property_test \
  dispatch_stress_test
./build-tsan/tests/scheduler_test
./build-tsan/tests/sweep_test
./build-tsan/tests/timing_wheel_test
./build-tsan/tests/property_test
./build-tsan/tests/dispatch_stress_test

echo "=== [7/8] model check: interleaving explorer over tests/mc ==="
# RBS_MODEL_CHECK is applied per-target inside tests/mc/ only; the
# production libraries in build-mc are compiled exactly as in tier-1.
cmake -B build-mc -S . -DRBS_MODEL_CHECK=ON >/dev/null
cmake --build build-mc -j "$JOBS" \
  --target mc_harness_test dispatch_protocol_mc_test dispatch_mutation_test
ctest --test-dir build-mc --output-on-failure -R '^lint\.model_check\.'

echo "=== [8/8] thread-safety annotations (clang -Wthread-safety) ==="
if command -v clang++ >/dev/null 2>&1; then
  python3 scripts/check_thread_safety.py
else
  echo "verify: WARNING: 'clang++' not found; skipping the thread-safety" \
       "annotation harness — only Clang implements -Wthread-safety." \
       "The CI thread-safety job still enforces it." >&2
fi

echo "verify: OK"
