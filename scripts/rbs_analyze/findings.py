"""Finding model and suppression handling."""
from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Set


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    file: str  # repo-relative, forward slashes
    line: int
    rule: str  # "R1".."R12"
    message: str
    hint: str = ""
    # "error" findings gate the baseline/exit code; "info" findings are
    # advisory (printed, JSON-exported, fixture-checked) but never fail a
    # run — R11's needless-seq_cst prong is the first user.
    severity: str = "error"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "severity": self.severity,
        }

    def render(self) -> str:
        tag = self.rule if self.severity == "error" else f"{self.rule}:{self.severity}"
        out = f"{self.file}:{self.line}: [{tag}] {self.message}"
        if self.hint:
            out += f"\n    fix: {self.hint}"
        return out


# `// rbs-analyze: allow(R2) -- reason` suppresses that rule on the same
# line or the line below the comment.
_ALLOW_RE = re.compile(
    r"//\s*rbs-analyze:\s*allow\((R\d+(?:\s*,\s*R\d+)*)\)\s*--\s*\S"
)


def collect_suppressions(text: str) -> Dict[int, Set[str]]:
    """Maps 1-based line numbers to the set of rules suppressed there.

    A comment on line N suppresses findings on line N and line N+1, so the
    annotation can sit on its own line above the flagged statement.
    """
    out: Dict[int, Set[str]] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        m = _ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            out.setdefault(i, set()).update(rules)
            out.setdefault(i + 1, set()).update(rules)
    return out


def apply_suppressions(
    findings: List[Finding], suppressions_by_file: Dict[str, Dict[int, Set[str]]]
) -> List[Finding]:
    kept = []
    for f in findings:
        allowed = suppressions_by_file.get(f.file, {}).get(f.line, set())
        if f.rule not in allowed:
            kept.append(f)
    return kept
