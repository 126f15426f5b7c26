#!/usr/bin/env bash
# rbsim smoke checks against an already built ./build tree:
#   - fault schedule: an --faults run must print the arming banner and the
#     fault report; a malformed schedule must fail with a line number
#   - telemetry: one instrumented run with per-flow rollups and the flight
#     recorder armed; check_telemetry.py validates the Chrome trace, the
#     metrics document and any post-mortem
#   - CCA: one short run per modern congestion-control flavor (cubic, bbr,
#     dctcp); each must report utilization and label every flow with its
#     flavor in the flow-stats rollup; a mixed-mode sweep must carry cca=
#     to every point; short and trace runs with cca=bbr must not print the
#     same output as with cca=newreno (the flavor reaches their senders)
#   - trace replay: a generated trace replayed under the invariant auditor
#     must complete every flow
#   - largest world: 500 long flows built, audited and torn down (zero
#     duration) under --paranoia must exit 0
#   - hostile inputs (including unknown keys and malformed pairs, on the
#     command line or in a config file): each must print one diagnostic and
#     exit 2 within 10 s
#
# Usage: scripts/rbsim_smoke.sh   (from anywhere; takes no options)
set -euo pipefail

cd "$(dirname "$0")/.."
RBSIM=./build/examples/rbsim

echo "--- rbsim smoke: fault schedule ---"
mkdir -p build/fault_smoke
cat > build/fault_smoke/faults.txt <<'EOF'
# Smoke schedule: one mid-run outage plus a loss burst.
down bottleneck_fwd 1.2 0.1
loss bottleneck_fwd 1.6 0.2 0.3
EOF
"$RBSIM" mode=long flows=10 duration=2 warmup=1 \
  --faults build/fault_smoke/faults.txt | tee build/fault_smoke/out.txt
grep -q "fault schedule" build/fault_smoke/out.txt
grep -q "injected faults" build/fault_smoke/out.txt
echo "bogus line" > build/fault_smoke/malformed.txt
status=0
"$RBSIM" mode=long duration=1 warmup=0 --faults build/fault_smoke/malformed.txt \
  >/dev/null 2>build/fault_smoke/err.txt || status=$?
if [ "$status" -ne 2 ]; then
  echo "rbsim_smoke: FATAL: malformed fault schedule exited $status, want 2" >&2
  exit 1
fi
grep -q "line 1" build/fault_smoke/err.txt

echo "--- rbsim smoke: telemetry ---"
mkdir -p build/telemetry_smoke
"$RBSIM" mode=long flows=20 duration=2 warmup=1 \
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

echo "--- rbsim smoke: CCA (cubic / bbr / dctcp) ---"
mkdir -p build/cca_smoke
for cca in cubic bbr dctcp; do
  "$RBSIM" mode=long flows=6 duration=2 warmup=1 "cca=$cca" \
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
"$RBSIM" mode=mixed flows=4 duration=2 warmup=1 rate_mbps=50 \
  buffer=40,80 cca=cubic --flow-stats --metrics build/cca_smoke/mixed.json \
  > build/cca_smoke/out_mixed.txt
python3 - <<'EOF'
import json
for i in (0, 1):
    path = f"build/cca_smoke/mixed.json.point{i}.json"
    labeled = json.load(open(path))["flow_stats"]["cca"]
    assert list(labeled) == ["cubic"], f"{path}: flow labels wrong: {labeled}"
EOF
for cca in newreno bbr; do
  "$RBSIM" mode=short duration=2 warmup=1 rate_mbps=20 "cca=$cca" \
    > "build/cca_smoke/short_$cca.txt"
done
if cmp -s build/cca_smoke/short_newreno.txt build/cca_smoke/short_bbr.txt; then
  echo "rbsim_smoke: FATAL: mode=short ignores cca= (bbr output == newreno output)" >&2
  exit 1
fi

echo "--- rbsim smoke: trace replay ---"
mkdir -p build/trace_smoke
# 60 flows of 1..59 packets, one every 50 ms, replayed with the auditor on.
awk 'BEGIN { print "# arrival_seconds size_packets";
             for (i = 0; i < 60; i++) printf "%.3f %d\n", 0.05 * i, 1 + (i * 17) % 59 }' \
  > build/trace_smoke/trace.txt
"$RBSIM" mode=trace trace=build/trace_smoke/trace.txt flows=8 duration=5 rate_mbps=20 \
  --paranoia | tee build/trace_smoke/out.txt
grep -q "trace        : 60 flows" build/trace_smoke/out.txt
grep -q "completed    : 60 (active at cutoff: 0)" build/trace_smoke/out.txt
for cca in newreno bbr; do
  "$RBSIM" mode=trace trace=build/trace_smoke/trace.txt flows=8 duration=5 rate_mbps=20 \
    "cca=$cca" > "build/trace_smoke/out_$cca.txt"
done
if cmp -s build/trace_smoke/out_newreno.txt build/trace_smoke/out_bbr.txt; then
  echo "rbsim_smoke: FATAL: mode=trace ignores cca= (bbr output == newreno output)" >&2
  exit 1
fi

echo "--- rbsim smoke: largest world ---"
mkdir -p build/largest_smoke
status=0
"$RBSIM" mode=long flows=500 warmup=0 duration=0 --paranoia \
  >build/largest_smoke/out.txt 2>&1 || status=$?
if [ "$status" -ne 0 ]; then
  cat build/largest_smoke/out.txt >&2
  echo "rbsim_smoke: FATAL: a 500-flow world under --paranoia exited $status, want 0" >&2
  exit 1
fi

echo "--- rbsim smoke: hostile inputs ---"
mkdir -p build/hostile_smoke
# A misspelt key in a config file must be rejected like one on the command line.
printf 'flows=5 duration=1\nwarmup=0.5 duraton=1\n' > build/hostile_smoke/typo.cfg
hostile=(
  "mode=short short_load=0"
  "mode=short short_load=inf"
  "mode=short flow_len=0"
  "flows=0"
  "flows=1e12"
  "seed=-1"
  "duration=-1"
  "mode=mixed flows=-3"
  "mode=trace --flow-stats"
  "rate_mbps=abc"
  "rate_mbps=0 duration=1 warmup=1 flows=5"
  "mode=short rate_mbps=0 duration=1 warmup=1"
  "--metrics build/hostile_smoke/m.json sample_interval=0 duration=1 warmup=1 flows=5"
  "--metrics build/hostile_smoke/m.json sample_interval=-1 duration=1 warmup=1 flows=5"
  "rate_mbps=1e-300 duration=1 warmup=1 flows=5"
  "duration=1e300 warmup=1 flows=5"
  "--metrics build/hostile_smoke/m.json sample_interval=1e300 duration=1 warmup=1 flows=5"
  "flows=5 duraton=1 warmup=0.5 duration=1 bogus=7"
  "=5 flows=5 duration=1 warmup=0.5"
  "build/hostile_smoke/typo.cfg"
)
for args in "${hostile[@]}"; do
  status=0
  # shellcheck disable=SC2086  # $args is deliberately word-split
  timeout 10 "$RBSIM" $args >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "rbsim_smoke: FATAL: rbsim $args exited $status, want 2" >&2
    exit 1
  fi
done

echo "rbsim_smoke: OK"
