#!/usr/bin/env python3
"""Validates BENCHMARK.json against the benchmark's own files.

  python3 perfbench/check.py [--perf-layers PATH]

Checks the file's shape and limits (names, counts, bounds), that every
workload has pinned answers for seeds 1 and 2, that layer_map.json covers
every per-layer metric with existing targets, and that the names the runner
(and, given its path, perf_layers) reports are exactly the declared ones.
Registered as the `bench.check` ctest of the perfbench build. Exits 1 on
the first list of problems.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run_benchmark  # noqa: E402


def check_shape(spec, problems):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"top-level keys are {sorted(spec)}")
        return
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("need 1 to 128 per-layer metrics")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs exactly name and a one-line why")
    for m in spec["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end {m['name']}: keys or bound out of range")
    for m in spec["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer {m['name']}: keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"{m['name']}: unit or better")
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower is better) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")


def check_files(spec, problems):
    for w in spec["workloads"]:
        for seed in (1, 2):
            if not (HERE / "expected" / f"{w['name']}.seed{seed}.txt").is_file():
                problems.append(f"no pinned answers for {w['name']} seed {seed}")
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    layer_map.pop("_doc", None)
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    if set(layer_map) != per_layer:
        problems.append(f"layer_map.json and per_layer differ: {sorted(set(layer_map) ^ per_layer)}")
    for metric, targets in layer_map.items():
        for t in targets:
            if t["moves"] not in end_to_end or not set(t["on"]) <= workloads:
                problems.append(f"layer_map.json {metric}: unknown target {t}")


def check_reported_names(spec, perf_layers, problems):
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if run_benchmark.END_TO_END != declared:
        problems.append("run_benchmark.py END_TO_END differs from BENCHMARK.json end_to_end")
    if list(run_benchmark.WORKLOADS) != [w["name"] for w in spec["workloads"]]:
        problems.append("run_benchmark.py WORKLOADS differs from BENCHMARK.json workloads")
    if perf_layers:
        out = subprocess.run([perf_layers, "--list-metrics"], capture_output=True, text=True,
                             check=True).stdout
        reported = [tuple(line.split()) for line in out.splitlines()]
        if reported != [(m["name"], m["unit"]) for m in spec["per_layer"]]:
            problems.append("perf_layers --list-metrics differs from BENCHMARK.json per_layer")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--perf-layers", help="path of the built perf_layers binary")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    check_shape(spec, problems)
    if not problems:
        check_files(spec, problems)
        check_reported_names(spec, args.perf_layers, problems)
    for p in problems:
        print(f"bench.check: {p}", file=sys.stderr)
    print("bench.check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
