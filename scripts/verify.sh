#!/usr/bin/env bash
# Full verification pass:
#   0. preflight: every tool the pass needs must exist up front; a missing
#      tool is a hard failure with a named diagnostic, never a silent skip
#   1. tier-1: RelWithDebInfo build + complete ctest suite
#   2. determinism + semantics analysis: rbs-analyze rules R1-R12 against
#      the checked-in baseline, plus the analyzer's own fixture corpus
#   3. fault scenarios: the deterministic failure-scenario suite plus an
#      rbsim --faults smoke run (schedule parse, arming banner, fault report)
#   4. bench smoke: one short repetition of the engine microbenchmarks
#   5. telemetry smoke: one instrumented rbsim run with per-flow rollups and
#      the flight recorder armed; validate the Chrome trace, metrics, and
#      flow-stats artifacts (and any post-mortem) with check_telemetry.py
#   6. CCA smoke: one short rbsim run per modern congestion-control flavor
#      (cubic, bbr, dctcp); each must finish, report utilization, and label
#      every flow with its flavor in the flow-stats rollup; hostile inputs
#      (zero load, zero flow length, flows=1e12) must exit 2, not hang
#   7. ASan/UBSan + RBS_CHECKED: rebuild with AddressSanitizer +
#      UndefinedBehaviorSanitizer and the hot-path invariant macros armed,
#      run the complete test suite
#   8. TSAN: rebuild scheduler + sweep runner under ThreadSanitizer and run
#      the concurrency-sensitive tests (scheduler_test, sweep_test,
#      timing_wheel_test, property_test, dispatch_stress_test)
#   9. model check: rebuild with RBS_MODEL_CHECK=ON (instrumentation is
#      per-target in tests/mc/ — production libraries are untouched) and
#      run the interleaving explorer: harness conformance, exhaustive
#      claim-protocol models, mutation kills
#  10. thread-safety annotations: clang++ -Wthread-safety positive +
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

echo "=== [0/10] preflight: required tools ==="
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

echo "=== [1/10] tier-1 build + tests ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [2/10] determinism + semantics analysis (rbs-analyze + fixture corpus) ==="
# Preflight: the analyzer package must be importable before we trust a pass.
PYTHONPATH=scripts python3 -c "import rbs_analyze" || {
  echo "verify: FATAL: scripts/rbs_analyze is not importable" >&2
  exit 1
}
cmake --build build --target analyze
python3 scripts/run_analyzer_fixtures.py

echo "=== [3/10] fault scenarios + rbsim --faults smoke ==="
ctest --test-dir build --output-on-failure -j "$JOBS" \
  -R 'FaultScenarioTest|FaultFuzz|FaultScheduleTest|FaultLinkTest|InjectorTest'
mkdir -p build/fault_smoke
cat > build/fault_smoke/faults.txt <<'EOF'
# verify.sh smoke schedule: one mid-run outage plus a loss burst.
down bottleneck_fwd 1.2 0.1
loss bottleneck_fwd 1.6 0.2 0.3
EOF
./build/examples/rbsim mode=long flows=10 duration=2 warmup=1 \
  --faults build/fault_smoke/faults.txt | tee build/fault_smoke/out.txt
grep -q "fault schedule" build/fault_smoke/out.txt
grep -q "injected faults" build/fault_smoke/out.txt
# A malformed schedule must be rejected with a line-numbered diagnostic.
if ./build/examples/rbsim mode=long duration=1 warmup=0 \
     --faults <(echo "bogus line") >/dev/null 2>build/fault_smoke/err.txt; then
  echo "verify: FATAL: rbsim accepted a malformed fault schedule" >&2
  exit 1
fi
grep -q "line 1" build/fault_smoke/err.txt

echo "=== [4/10] bench smoke ==="
cmake --build build -j "$JOBS" --target bench_smoke

echo "=== [5/10] telemetry smoke ==="
mkdir -p build/telemetry_smoke
./build/examples/rbsim mode=long flows=20 duration=2 warmup=1 \
  --metrics build/telemetry_smoke/metrics.json \
  --trace build/telemetry_smoke/trace.json --profile --flow-stats \
  --post-mortem build/telemetry_smoke/post_mortem.json
python3 scripts/check_telemetry.py \
  --trace build/telemetry_smoke/trace.json \
  --metrics build/telemetry_smoke/metrics.json \
  --min-trace-events 1000
# A healthy run writes no post-mortem; validate only if the recorder fired.
if [ -f build/telemetry_smoke/post_mortem.json ]; then
  python3 scripts/check_telemetry.py \
    --post-mortem build/telemetry_smoke/post_mortem.json
fi

echo "=== [6/10] CCA smoke: cubic / bbr / dctcp short runs ==="
mkdir -p build/cca_smoke
for cca in cubic bbr dctcp; do
  ./build/examples/rbsim mode=long flows=6 duration=2 warmup=1 "cca=$cca" \
    --flow-stats --metrics "build/cca_smoke/metrics_$cca.json" \
    > "build/cca_smoke/out_$cca.txt"
  grep -q "utilization" "build/cca_smoke/out_$cca.txt"
  # Every flow must be labeled with its flavor in the flow-stats rollup,
  # and the per-CCA gauge must have reached the metrics document.
  RBS_CCA="$cca" python3 - <<'EOF'
import json, os
cca = os.environ["RBS_CCA"]
doc = json.load(open(f"build/cca_smoke/metrics_{cca}.json"))
labeled = doc["flow_stats"]["cca"]
assert labeled.get(cca, 0) == 6, f"cca={cca}: flow labels wrong: {labeled}"
names = {m["name"] for m in doc["snapshot"]["metrics"]}
assert f"flowstats.cca.{cca}" in names, \
    f"cca={cca}: per-CCA gauge missing from metrics"
EOF
done
# A mixed-mode buffer sweep must carry cca= to every point.
./build/examples/rbsim mode=mixed flows=4 duration=2 warmup=1 rate_mbps=50 \
  buffer=40,80 cca=cubic --flow-stats --metrics build/cca_smoke/mixed.json \
  > build/cca_smoke/out_mixed.txt
python3 - <<'EOF'
import json
for i in (0, 1):
    path = f"build/cca_smoke/mixed.json.point{i}.json"
    labeled = json.load(open(path))["flow_stats"]["cca"]
    assert list(labeled) == ["cubic"], f"{path}: flow labels wrong: {labeled}"
EOF
# Hostile inputs must fail fast with exit 2, not hang: a zero short-flow
# load, a zero flow length, and an integer key that does not fit an int.
for args in "mode=short short_load=0" "mode=short flow_len=0" "flows=1e12"; do
  status=0
  # shellcheck disable=SC2086  # $args is deliberately word-split
  timeout 10 ./build/examples/rbsim $args >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "verify: FATAL: rbsim $args exited $status, want 2" >&2
    exit 1
  fi
done

echo "=== [7/10] ASan/UBSan + RBS_CHECKED: full test suite ==="
cmake -B build-asan -S . -DRBS_ASAN=ON -DRBS_CHECKED=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "=== [8/10] ThreadSanitizer: concurrency tests ==="
cmake -B build-tsan -S . -DRBS_TSAN=ON >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target scheduler_test sweep_test timing_wheel_test property_test \
  dispatch_stress_test
./build-tsan/tests/scheduler_test
./build-tsan/tests/sweep_test
./build-tsan/tests/timing_wheel_test
./build-tsan/tests/property_test
./build-tsan/tests/dispatch_stress_test

echo "=== [9/10] model check: interleaving explorer over tests/mc ==="
# RBS_MODEL_CHECK is applied per-target inside tests/mc/ only; the
# production libraries in build-mc are compiled exactly as in tier-1.
cmake -B build-mc -S . -DRBS_MODEL_CHECK=ON >/dev/null
cmake --build build-mc -j "$JOBS" \
  --target mc_harness_test dispatch_protocol_mc_test dispatch_mutation_test
ctest --test-dir build-mc --output-on-failure -R '^lint\.model_check\.'

echo "=== [10/10] thread-safety annotations (clang -Wthread-safety) ==="
if command -v clang++ >/dev/null 2>&1; then
  python3 scripts/check_thread_safety.py
else
  echo "verify: WARNING: 'clang++' not found; skipping the thread-safety" \
       "annotation harness — only Clang implements -Wthread-safety." \
       "The CI thread-safety job still enforces it." >&2
fi

echo "verify: OK"
