"""File discovery and the top-level run() entry."""
from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from . import RULES
from .findings import Finding, apply_suppressions, collect_suppressions
from .lexer import tokenize
from .rules import ALL_RULES, build_context

# tests/ is out of scope by default: test bodies legitimately capture locals
# in scheduled lambdas (they run the simulation before the scope exits) and
# seed Rngs directly. The fixture runner analyzes tests/analyzer_fixtures
# explicitly via --files.
DEFAULT_ROOTS = ("src", "examples", "bench")
SOURCE_SUFFIXES = (".cpp", ".cc", ".hpp", ".h")


def discover_files(repo: Path) -> List[Path]:
    """Every header and source under the default roots."""
    files = set()
    for root in DEFAULT_ROOTS:
        base = repo / root
        if base.is_dir():
            for suffix in SOURCE_SUFFIXES:
                files.update(p.resolve() for p in base.rglob(f"*{suffix}"))
    # Build trees under the roots (CMakeFiles etc.) are not ours.
    return sorted(p for p in files if "CMakeFiles" not in p.parts)


def run(
    repo: Path,
    files: Optional[List[Path]] = None,
    rules: Optional[List[str]] = None,
) -> List[Finding]:
    rules = list(rules or RULES)
    if files is None:
        files = discover_files(repo)

    texts: Dict[str, str] = {}
    tokens = {}
    for f in files:
        rel = f.relative_to(repo).as_posix() if f.is_absolute() else f.as_posix()
        try:
            text = (repo / rel).read_text(errors="replace")
        except OSError:
            continue
        texts[rel] = text
        tokens[rel] = tokenize(text)

    ctx = build_context(tokens, repo)
    findings: List[Finding] = []
    for rel, toks in tokens.items():
        for rule in rules:
            findings.extend(ALL_RULES[rule](rel, toks, ctx))

    suppressions = {rel: collect_suppressions(text) for rel, text in texts.items()}
    return sorted(apply_suppressions(findings, suppressions))
