#!/usr/bin/env python3
"""Benchmark runner: end-to-end and per-layer metrics of the paper artifacts.

Run from the root of a checkout:

  python3 perfbench/run_benchmark.py --workload fig7 --seed 1 --seconds 40 --trace 0
      Builds the benchmark package into .bench_build/perfbench (the first
      run compiles it) and validates BENCHMARK.json against it with
      check.py. Then it alternates a set-up sample (the workload's
      largest world built and torn down at zero horizon) and an untraced
      batch process for about --seconds. Each batch is measured from
      outside: wall clock, CPU (user + sys) and peak RSS through os.wait4.
      Its answers must equal the pinned output in perfbench/expected/ (or,
      for a seed with no pinned output, every other batch of the run and the
      pinned output's shape). A run in which nothing completes exits 1.
  ... --trace 1
      Runs the micro_engine benchmarks perf_layers reads, then perf_layers
      once: the traced replay, reference world and isolated-operation
      timings behind the per-layer metrics. The spans go to
      .bench_build/traces/ as Chrome trace JSON.
  python3 perfbench/run_benchmark.py --ab CHECKOUT_A CHECKOUT_B --pairs 10
      Interleaved A/B comparison of two checkouts (A = parent, B = change),
      alternating which side runs first, with one verdict per workload and
      end-to-end metric: improved, unchanged, unresolved or regressed. Add
      --workload W to compare one workload only.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Every run also merges its rows into .bench_build/bench_results/<commit>.json.
"""

import argparse
import hashlib
import json
import os
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "bench_results"
TRACES = ROOT / ".bench_build" / "traces"
EXPECTED = HERE / "expected"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("fig7", "fig8", "cca_matrix")
# What --trace 0 reports, name -> unit.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MIN_BATCHES = 3
BATCH_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no batch starts after this, so a run ends well inside 180 s
SETUP_SECONDS = 0.1  # each set-up sample repeats the world build this long
MICRO_MIN_TIME_S = 0.1  # per micro_engine repetition
MICRO_REPETITIONS = 5

NUMBER = re.compile(r"-?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]?\d+|\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def sweep_threads():
    return min(4, nproc())


# --- Build -------------------------------------------------------------------


def build(traced):
    """Configures and builds the package, then validates BENCHMARK.json
    against it (check.py, the bench.check test); exits 2 if the sources are
    absent, the build fails or the check fails. The traced run also needs
    micro_engine, which needs google-benchmark."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run_benchmark: no simulator sources under {ROOT / 'src'}; nothing to build")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    # One target per step: make can race on shared libraries when a
    # reconfigure and several targets share one parallel invocation.
    for target in ["workload", "perf_layers"] + (["micro_engine"] if traced else []):
        steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc()), "--target", target])
    steps.append([sys.executable, str(HERE / "check.py"), "--perf-layers", str(BUILD / "perf_layers")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode:
            log("run_benchmark: failed: " + " ".join(cmd))
            sys.exit(2)


# --- Launching ---------------------------------------------------------------


class Launch:
    """One child process, measured from outside."""

    def __init__(self, cmd, timeout):
        out_path = BUILD / "last_stdout.txt"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
            killer.cancel()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = out_path.read_text()


def workload_cmd(workload, seed, *extra):
    return [str(BUILD / "workload"), "--workload", workload, "--seed", str(seed), *extra]


# --- Answers -----------------------------------------------------------------


def pinned(workload, seed):
    path = EXPECTED / f"{workload}.seed{seed}.txt"
    return path.read_text() if path.is_file() else None


def shape(text):
    """The answer text with every number replaced and spacing collapsed."""
    return [" ".join(NUMBER.sub("#", line).split()) for line in text.splitlines()]


def line_errors(got, want):
    """Lines of `want` that `got` does not reproduce, as a share of `want`."""
    a, b = got.splitlines(), want.splitlines()
    differing = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return min(1.0, differing / max(1, len(b)))


class AnswerCheck:
    """Checks batch answers against the pinned output, or for an unpinned
    seed against the run's first answer and the pinned output's shape."""

    def __init__(self, workload, seed):
        self.want = pinned(workload, seed)
        reference = pinned(workload, 1)
        self.shape = shape(reference) if reference is not None else None
        self.errors = []

    def __call__(self, returncode, text):
        if returncode != 0:
            self.errors.append(1.0)
            return False
        if self.want is None:
            if self.shape is not None and shape(text) != self.shape:
                self.errors.append(1.0)
                return False
            self.want = text
        err = line_errors(text, self.want)
        self.errors.append(err)
        return err == 0.0


# --- Statistics --------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(name, unit, values):
    q1, med, q3 = quartiles(values)
    print(f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    return {"value": statistics.median(values), "spread": q3 - q1, "repetitions": len(values)}


# --- Results file ------------------------------------------------------------


def commit_id():
    """The checkout's git commit, or outside git a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            if head.returncode == 0:
                return head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def write_results(workload, seed, rows):
    """Merges rows (name, metric, unit, value, spread, repetitions, ...) into
    the commit's results file, replacing earlier rows of the same key."""
    commit = commit_id()
    common = {"commit": commit, "host": socket.gethostname(), "nproc": nproc(),
              "threads": sweep_threads(), "seed": seed}
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{commit}.json"
    existing = json.loads(path.read_text()) if path.is_file() else []
    keys = {(workload, r["metric"], seed) for r in rows}
    merged = [r for r in existing if (r["name"], r["metric"], r["seed"]) not in keys]
    merged += [{"name": workload, **r, **common} for r in rows]
    path.write_text(json.dumps(merged, indent=1) + "\n")


# --- Runs --------------------------------------------------------------------


def run_untraced(workload, seed, seconds):
    """Alternates a set-up sample and a batch for about `seconds`, so both
    kinds of sample spread over the whole run. A pair is not started when it
    would end more than half a pair's time past `seconds`."""
    threads = sweep_threads()
    check = AnswerCheck(workload, seed)
    failed = pairs = 0
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    batch_cmd = workload_cmd(workload, seed, "--threads", str(threads))
    setup_cmd = workload_cmd(workload, seed, "--setup", str(SETUP_SECONDS))
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        per_pair = elapsed / pairs if pairs else 0.0
        if pairs >= MIN_BATCHES and elapsed + per_pair / 2 >= seconds:
            break
        if pairs and elapsed + 2 * per_pair > RUN_BUDGET_S:
            break
        setup = Launch(setup_cmd, BATCH_TIMEOUT_S)
        batch = Launch(batch_cmd, BATCH_TIMEOUT_S)
        pairs += 1
        fields = setup.stdout.split()
        if setup.returncode == 0 and len(fields) == 2 and fields[0] == "setup_call_s":
            samples["setup_s"].append(float(fields[1]))
        else:
            failed += 1
            log(f"run_benchmark: {workload} set-up sample failed (exit {setup.returncode})")
        if batch.returncode == 0:
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[name].append(getattr(batch, name))
        if not check(batch.returncode, batch.stdout):
            failed += 1
            log(f"run_benchmark: {workload} batch exited {batch.returncode} "
                f"or gave answers other than the pinned ones")
    if not all(samples.values()):
        log(f"run_benchmark: no {workload} batch or set-up sample completed; nothing measured")
        sys.exit(1)

    print(f"{workload} seed {seed}: {len(samples['wall_s'])} batches on {threads} threads, "
          f"mean error_rate {statistics.fmean(check.errors):.4f}")
    rows, metrics = [], {}
    for name, unit in END_TO_END.items():
        stats = summarize(name, unit, samples[name])
        metrics[name] = {"value": stats["value"], "unit": unit}
        rows.append({"metric": name, "unit": unit, **stats})
    write_results(workload, seed, rows)
    return 2 * pairs, failed, metrics


def per_layer_spec():
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def micro_args(threads):
    """Runs the micro_engine benchmarks perf_layers reads (median of
    MICRO_REPETITIONS) and returns them as perf_layers --micro arguments:
    NAME=NS, the real time of one iteration."""
    names = subprocess.run([str(BUILD / "perf_layers"), "--list-micro", "--threads", str(threads)],
                           capture_output=True, text=True, check=True).stdout.split()
    launch = Launch([str(BUILD / "micro_engine"),
                     "--benchmark_filter=^(" + "|".join(re.escape(n) for n in names) + ")$",
                     f"--benchmark_min_time={MICRO_MIN_TIME_S}",
                     f"--benchmark_repetitions={MICRO_REPETITIONS}",
                     "--benchmark_report_aggregates_only=true", "--benchmark_format=json"],
                    BATCH_TIMEOUT_S)
    medians = {}
    if launch.returncode == 0:
        for b in json.loads(launch.stdout)["benchmarks"]:
            if b.get("aggregate_name") == "median":
                medians[b["run_name"]] = b["real_time"] * TIME_UNIT_NS[b["time_unit"]]
    missing = [n for n in names if n not in medians]
    if missing:
        log(f"run_benchmark: micro_engine (exit {launch.returncode}) gave no result for {missing}")
        sys.exit(1)
    args = []
    for name in names:
        args += ["--micro", f"{name}={medians[name]!r}"]
    return args


def run_traced(workload, seed):
    threads = sweep_threads()
    TRACES.mkdir(parents=True, exist_ok=True)
    answers = BUILD / f"{workload}.seed{seed}.answers"
    trace = TRACES / f"{workload}.seed{seed}.json"
    launch = Launch([str(BUILD / "perf_layers"), "--workload", workload, "--seed", str(seed),
                     "--threads", str(threads), "--answers-out", str(answers),
                     "--trace-out", str(trace), *micro_args(threads)], BATCH_TIMEOUT_S)
    reported = {}
    for line in launch.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            reported[name] = (float(value), unit)
        elif line.startswith("info "):
            print(line[len("info "):])
    expected = per_layer_spec()
    if {n: u for n, (_, u) in reported.items()} != expected:
        log("run_benchmark: perf_layers did not report exactly BENCHMARK.json's per_layer "
            f"metrics (exit {launch.returncode}); nothing measured")
        sys.exit(1)

    check = AnswerCheck(workload, seed)
    checks = []
    if check.want is None:
        reference = Launch(workload_cmd(workload, seed, "--threads", str(threads)), BATCH_TIMEOUT_S)
        checks.append(check(reference.returncode, reference.stdout))
    replayed = answers.read_text() if answers.is_file() else ""
    checks.append(check(launch.returncode, replayed))
    if not checks[-1]:
        log(f"run_benchmark: traced replay of {workload} failed or gave other answers")

    rows, metrics = [], {}
    for name, unit in expected.items():
        value = reported[name][0]
        metrics[name] = {"value": value, "unit": unit}
        rows.append({"metric": name, "unit": unit, "value": value, "spread": None,
                     "repetitions": 1})
    write_results(workload, seed, rows)
    print(f"trace: {trace.relative_to(ROOT)}")
    return len(checks), checks.count(False), metrics


# --- A/B ---------------------------------------------------------------------


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run_benchmark.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run_benchmark: {checkout} failed on {workload}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"run_benchmark: {checkout} gave wrong answers on {workload}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(a, b, bound, lower_is_better=True):
    """Classifies B against A. Improved: B wins at least 9 in 10 pairs and
    the medians differ by more than A's IQR. Regressed: B's median is worse
    by more than the bound. Unresolved: A's IQR exceeds the bound and B's
    runs do not all beat A's. Unchanged: otherwise."""
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    gain = sign * (med_a - med_b)
    if wins >= 0.9 * len(a) and gain > q3 - q1:
        return "improved"
    if -gain > bound * med_a:
        return "regressed"
    every_better = max(sign * y for y in b) < min(sign * x for x in a)
    if (q3 - q1) > bound * med_a and not every_better:
        return "unresolved"
    return "unchanged"


def run_ab(side_a, side_b, pairs, seed, seconds, workloads):
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    values = {}  # (workload, metric, side) -> list
    for pair in range(pairs):
        for workload in workloads:
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                checkout = side_a if side == "A" else side_b
                for name, value in run_side(checkout, workload, seed, seconds).items():
                    values.setdefault((workload, name, side), []).append(value)
            log(f"pair {pair + 1}/{pairs} {workload} done")
    rows = []
    print(f"{'workload':<13} {'metric':<12} {'A median':>11} {'B median':>11} {'A IQR':>10} verdict")
    for workload in workloads:
        for name, (bound, lower) in bounds.items():
            a, b = values[(workload, name, "A")], values[(workload, name, "B")]
            v = verdict(a, b, bound, lower)
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<13} {name:<12} {qa[1]:>11.5g} {qb[1]:>11.5g} "
                  f"{qa[2] - qa[0]:>10.3g} {v}")
            rows.append({"name": workload, "metric": name, "verdict": v, "bound": bound,
                         "a": a, "b": b, "seed": seed, "pairs": pairs})
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / "ab.json"
    out.write_text(json.dumps({"a": str(side_a), "b": str(side_b), "rows": rows}, indent=1) + "\n")
    print(f"verdicts: {out.relative_to(ROOT)}")


# --- Main --------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ab", nargs=2, metavar=("CHECKOUT_A", "CHECKOUT_B"))
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    seconds = args.seconds or json.loads(BENCHMARK.read_text())["run_seconds"]

    if args.ab:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        run_ab(*(Path(p).resolve() for p in args.ab), args.pairs, args.seed, seconds, workloads)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    build(traced=bool(args.trace))
    if args.trace:
        attempted, failed, metrics = run_traced(args.workload, args.seed)
    else:
        attempted, failed, metrics = run_untraced(args.workload, args.seed, seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
