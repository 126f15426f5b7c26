"""CLI: python3 -m rbs_analyze (run from scripts/, or with PYTHONPATH=scripts).

Exit codes: 0 clean vs baseline · 1 findings above baseline · 2 tool error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import RULES, RULE_TITLES, __version__
from . import baseline as baseline_mod
from .driver import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="rbs-analyze",
        description="Simulator-semantics static analysis for rbs (rules R1-R12).",
    )
    ap.add_argument("--repo", type=Path, default=None,
                    help="repository root (default: auto-detect from this file)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated subset of rules to run")
    ap.add_argument("--files", nargs="*", type=Path, default=None,
                    help="analyze only these files (fixture/test mode)")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="baseline JSON (default: scripts/rbs_analyze/baseline.json)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline: any finding is a failure")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from this run (ratchet: total may not grow)")
    ap.add_argument("--force-baseline-growth", action="store_true",
                    help="allow --update-baseline to raise the total (breaks the ratchet; "
                         "reserve for rule changes)")
    ap.add_argument("--json", type=Path, default=None, help="write findings as JSON")
    ap.add_argument("--quiet", action="store_true", help="suppress per-finding text")
    args = ap.parse_args(argv)

    repo = (args.repo or Path(__file__).resolve().parents[2]).resolve()

    rules = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
    if not rules:
        # run() treats an empty rule list as every rule, so the report's rule
        # map would disagree with what ran.
        print("rbs-analyze: --rules selects no rule", file=sys.stderr)
        return 2
    bad = [r for r in rules if r not in RULES]
    if bad:
        print(f"rbs-analyze: unknown rule(s): {', '.join(bad)}", file=sys.stderr)
        return 2

    files = None
    if args.files is not None:
        files = [f if f.is_absolute() else (Path.cwd() / f) for f in args.files]

    findings = run(repo, files, rules)

    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(
            {
                "version": __version__,
                "rules": {r: RULE_TITLES[r] for r in rules},
                "findings": [f.as_dict() for f in findings],
            },
            indent=2,
        ) + "\n")

    if not args.quiet:
        for f in findings:
            print(f.render())

    # Only error-severity findings gate the exit code and the baseline;
    # informational findings (e.g. R11's needless-seq_cst prong) are
    # advisory — printed and JSON-exported above, never a failure.
    errors = [f for f in findings if f.severity == "error"]
    info_count = len(findings) - len(errors)

    baseline_path = args.baseline or (repo / "scripts" / "rbs_analyze" / "baseline.json")

    if args.update_baseline:
        new_counts = baseline_mod.counts_of(errors)
        old_counts = baseline_mod.load(baseline_path)
        old_total = baseline_mod.total(old_counts)
        new_total = baseline_mod.total(new_counts)
        if baseline_path.exists() and new_total > old_total and not args.force_baseline_growth:
            print(
                f"rbs-analyze: refusing to grow the baseline "
                f"({old_total} -> {new_total} findings); fix the new findings or "
                f"pass --force-baseline-growth if a rule legitimately changed",
                file=sys.stderr,
            )
            return 1
        baseline_mod.save(baseline_path, new_counts)
        print("rbs-analyze: baseline updated: "
              f"{new_total} accepted finding(s) at {baseline_path}")
        return 0

    if args.no_baseline:
        n = len(errors)
        extra = f" + {info_count} informational" if info_count else ""
        print(f"rbs-analyze: {n} finding(s){extra}, no baseline")
        return 1 if n else 0

    base = baseline_mod.load(baseline_path)
    regressions, improvements = baseline_mod.compare(errors, base)
    for line in improvements:
        print(f"rbs-analyze: improved: {line}")
    if regressions:
        print("rbs-analyze: FAIL — new findings above baseline:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    extra = f" + {info_count} informational" if info_count else ""
    print(f"rbs-analyze: clean — {len(errors)} finding(s){extra}, "
          f"all within baseline ({baseline_mod.total(base)} accepted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
