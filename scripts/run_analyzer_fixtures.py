#!/usr/bin/env python3
"""Rule-by-rule test harness for rbs-analyze over tests/analyzer_fixtures/.

Every fixture file declares the findings it must produce on its first line:

    // rbs-analyze-fixture-expect: R1 R1 R3

(an empty list marks a clean twin). The harness runs the analyzer over the
fixture tree with the fixture dir as the repo root — the tree mirrors a
src/ layout so path-scoped rules (R3 headers, R4's tests/ exemption, R1's
telemetry allowlist) exercise their real predicates — and asserts the
produced rule multiset per file matches the expectation exactly.

Also asserts corpus completeness: every rule id must appear in at least
one failing fixture and one clean twin, and that the CLI rejects an empty
or unknown --rules selection with exit 2.

Usage: python3 scripts/run_analyzer_fixtures.py [--fixtures DIR]
Exit 0 on success, 1 on mismatch.
"""
from __future__ import annotations

import argparse
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rbs_analyze import RULES  # noqa: E402
from rbs_analyze.driver import run  # noqa: E402

EXPECT_RE = re.compile(r"//\s*rbs-analyze-fixture-expect:\s*((?:R\d+\s*)*)$")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixtures", type=Path,
                    default=Path(__file__).resolve().parents[1]
                    / "tests" / "analyzer_fixtures")
    args = ap.parse_args()

    fixture_root = args.fixtures.resolve()
    files = sorted(
        p for suffix in (".cpp", ".hpp") for p in fixture_root.rglob(f"*{suffix}")
    )
    if not files:
        print(f"fixture harness: no fixtures under {fixture_root}", file=sys.stderr)
        return 1

    expectations = {}
    for f in files:
        first = f.read_text().splitlines()[0]
        m = EXPECT_RE.match(first.strip())
        if not m:
            print(f"fixture harness: {f} lacks a rbs-analyze-fixture-expect header",
                  file=sys.stderr)
            return 1
        rel = f.relative_to(fixture_root).as_posix()
        expectations[rel] = Counter(m.group(1).split())

    findings = run(repo=fixture_root, files=files)

    produced: dict = {rel: Counter() for rel in expectations}
    for finding in findings:
        produced.setdefault(finding.file, Counter())[finding.rule] += 1

    failures = []
    for rel in sorted(expectations):
        want, got = expectations[rel], produced.get(rel, Counter())
        if want != got:
            failures.append(
                f"{rel}: expected {sorted(want.elements()) or 'no findings'}, "
                f"got {sorted(got.elements()) or 'no findings'}"
            )

    # Corpus completeness: each rule must have a failing and a clean fixture.
    # A rule with no failing fixture is a rule nothing proves still fires —
    # fail loudly and name the file to add.
    for rule in RULES:
        failing = [r for r, w in expectations.items() if w[rule] > 0]
        # Prefix match on the stem ("r1_clean" is R1's twin, not R10's —
        # a bare substring test would hand every r1*_... file to R1).
        clean = [r for r, w in expectations.items()
                 if not w and Path(r).stem.lower().startswith(rule.lower() + "_")]
        if not failing:
            failures.append(
                f"corpus: no failing fixture exercises {rule} — add e.g. "
                f"tests/analyzer_fixtures/src/{rule.lower()}_violation.cpp with a "
                f"'// rbs-analyze-fixture-expect: {rule}' header"
            )
        if not clean:
            failures.append(
                f"corpus: no clean twin exercises {rule} — add e.g. "
                f"tests/analyzer_fixtures/src/{rule.lower()}_clean.cpp with an "
                f"empty '// rbs-analyze-fixture-expect:' header"
            )

    # Rule selection: a selection naming no rule, or an unknown one, is a
    # usage error, never a silent run of every rule.
    for selection in ("", " , ", "R99"):
        status = subprocess.run(
            [sys.executable, "-m", "rbs_analyze", "--rules", selection, "--quiet",
             "--files"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
        ).returncode
        if status != 2:
            failures.append(f"cli: --rules {selection!r} exited {status}, want 2")

    if failures:
        print("fixture harness: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"fixture harness: {len(expectations)} fixtures OK, "
          f"all {len(RULES)} rules exercised failing and clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
