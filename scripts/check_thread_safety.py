#!/usr/bin/env python3
"""Thread-safety annotation harness: proves the annotations are load-bearing.

Two legs, both requiring clang++ (the only compiler implementing
-Wthread-safety):

  positive  the annotated cross-thread TUs (sweep engine, sweep profiler)
            and tests/thread_safety/guarded_access_ok.cpp must compile
            cleanly under -Wthread-safety -Werror=thread-safety.

  negative  tests/thread_safety/guarded_access_poke.cpp reads ONE guarded
            SweepClaims field without the mutex (selected with
            -DRBS_TSA_FIELD=<field>) and must FAIL to compile, once per
            guarded field. If any poke compiles, an RBS_GUARDED_BY was
            removed or weakened — the harness (and the CI thread-safety
            leg) fails, naming the field.

This is the machine check behind the claim in dispatch_protocol.hpp: deleting
any one annotation there turns a data-race hazard back into silently
accepted code, so the harness turns it into a build failure instead.

Usage: python3 scripts/check_thread_safety.py [--clang PATH]
Exit 0 all checks pass · 1 a check failed · 2 no usable clang++.
"""
from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# TUs whose annotations must hold under -Werror=thread-safety.
POSITIVE_TUS = (
    "src/experiment/sweep.cpp",
    "src/telemetry/sweep_profile.cpp",
    "tests/thread_safety/guarded_access_ok.cpp",
)

POKE_TU = "tests/thread_safety/guarded_access_poke.cpp"

# Every RBS_GUARDED_BY field of detail::SweepClaims. Keep in sync with
# src/experiment/dispatch_protocol.hpp — a field listed here but no longer
# guarded there is exactly the regression the negative leg exists to catch.
GUARDED_FIELDS = ("next", "first_error")

BASE_FLAGS = [
    "-std=c++20",
    "-fsyntax-only",
    "-Wthread-safety",
    "-Werror=thread-safety",
    f"-I{REPO / 'src'}",
]


def compile_tu(clang: str, tu: Path, extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [clang, *BASE_FLAGS, *extra, str(tu)],
        capture_output=True, text=True, check=False,
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--clang", default=None,
                    help="clang++ to use (default: $RBS_CLANGXX or clang++ on PATH)")
    args = ap.parse_args()

    import os
    clang = args.clang or os.environ.get("RBS_CLANGXX") or shutil.which("clang++")
    if not clang or not shutil.which(clang):
        print("check_thread_safety: no clang++ found — the thread-safety "
              "analysis only exists in Clang. Install clang or pass --clang.",
              file=sys.stderr)
        return 2

    failures: list[str] = []

    for rel in POSITIVE_TUS:
        tu = REPO / rel
        proc = compile_tu(clang, tu, [])
        if proc.returncode != 0:
            failures.append(
                f"positive: {rel} failed -Wthread-safety:\n{proc.stderr.strip()}"
            )
        else:
            print(f"check_thread_safety: ok (positive) {rel}")

    for field in GUARDED_FIELDS:
        proc = compile_tu(clang, REPO / POKE_TU, [f"-DRBS_TSA_FIELD={field}"])
        if proc.returncode == 0:
            failures.append(
                f"negative: unguarded read of SweepClaims::{field} COMPILED — "
                "its RBS_GUARDED_BY annotation in src/experiment/dispatch_protocol.hpp "
                "is missing or no longer enforced"
            )
        else:
            print(f"check_thread_safety: ok (negative) {POKE_TU} field={field}")

    if failures:
        print("check_thread_safety: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"check_thread_safety: {len(POSITIVE_TUS)} positive and "
          f"{len(GUARDED_FIELDS)} negative checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
