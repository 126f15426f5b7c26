"""R1–R12 implemented over the lexer's token stream.

Each rule is a function (path, tokens, ctx) -> [Finding]. `ctx` carries
cross-file facts (the index of declared unordered-container variables, the
cross-TU symbol index of concurrency classifications, and the documented
metric-name reference) so rules can resolve names declared in a header
while analyzing the .cpp.

R9 is the one exception to the token-stream diet: the lexer strips string
literal contents, so the metric-name rule re-reads the file and scans raw
text for registry/trace name literals.
"""
from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .findings import Finding
from .lexer import Token, find_matching, match_seq
from .symbols import SymbolIndex, build_symbol_index

RAW_SCALAR_TYPES = {
    "double",
    "float",
    "int",
    "long",
    "int16_t",
    "int32_t",
    "int64_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "size_t",
}
UNIT_SUFFIXES = ("_ps", "_seconds", "_bytes", "_bps", "_pkts")

# Wall-clock reads are sanctioned in telemetry (profiling/tracing needs real
# time) and bench harnesses (they measure themselves).
WALL_CLOCK_ALLOWED_PREFIXES = ("src/telemetry/", "bench/")
WALL_CLOCK_IDENTS = {
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "gettimeofday",
    "clock_gettime",
}

# std engines R1 rejects alongside every std::*_distribution. Randomness
# must come from sim::Rng's seeded, forked streams; the distributions and
# default_random_engine are implementation-defined, so they also differ
# across standard libraries.
STD_RANDOM_ENGINES = {
    "mt19937",
    "mt19937_64",
    "minstd_rand",
    "minstd_rand0",
    "default_random_engine",
}

# Picosecond-scale literals: three or more thousands-groups (1'000'000'000
# and longer). Two groups (1'000'000) are flow-id offsets and packet counts,
# not times. Only src/sim/time.hpp, which defines the SimTime factories, may
# spell ticks directly.
RAW_TIME_RE = re.compile(r"\d{1,3}(?:'\d{3}){3,}(?![\d'])")
RAW_TIME_HOME = "src/sim/time.hpp"

UNORDERED_CONTAINERS = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
}

SCHEDULER_CALLS = {"schedule_at", "schedule_after", "at", "after"}

# Entry points that run the passed lambda concurrently on sweep workers.
PARALLEL_CALLS = {"run_indexed", "map", "set_observer"}

# Member calls that mutate a standard container.
CONTAINER_MUTATORS = {
    "push_back", "emplace_back", "pop_back", "insert", "emplace", "erase",
    "clear", "resize", "assign",
}

# R7 does not police the scheduler's own internals: src/sim owns the pool
# and its firing path legitimately holds slot references.
POOL_LIFETIME_ALLOWED_PREFIXES = ("src/sim/",)

# R8 (backend purity) exemptions: the scheduler itself, profile/stats-only
# telemetry, and bench harnesses that compare engine speeds by design.
BACKEND_PURITY_ALLOWED_PREFIXES = ("src/sim/", "src/telemetry/", "bench/")

# Field classifications (see symbols.py) that sanction a cross-thread write.
_SANCTIONED_WRITE_CLASSES = {"atomic", "guarded"}

# The concurrency-primitive layer: the annotated-mutex wrappers and the
# model-checker instrumentation/scheduler. R10 sanctions raw std primitives
# here (these files are what everything else must use instead), and R6
# prong (b) / R12 skip it (the scheduler's single-baton synchronization has
# no per-field classification to express).
MC_SANCTIONED_PREFIXES = (
    "src/core/thread_annotations.hpp",
    "src/check/mc/",
)

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


@dataclasses.dataclass
class AnalysisContext:
    """Cross-file facts the rules need."""

    # Variable names declared anywhere as std::unordered_{map,set}<...>.
    unordered_names: Set[str] = dataclasses.field(default_factory=set)
    # Cross-TU class/member concurrency classifications (R6–R8).
    symbols: SymbolIndex = dataclasses.field(default_factory=SymbolIndex)
    # Repo root, for rules that need raw file text (R9). None in unit use.
    repo: Optional[Path] = None
    # Backticked tokens from docs/observability.md — the normative metric
    # and trace-name reference R9 checks against. None when the doc is
    # absent (R9 then stays silent rather than flagging everything).
    metric_reference: Optional[Set[str]] = None


def _load_metric_reference(repo: Optional[Path]) -> Optional[Set[str]]:
    if repo is None:
        return None
    try:
        text = (repo / "docs" / "observability.md").read_text(errors="replace")
    except OSError:
        return None
    return set(re.findall(r"`([^`\n]+)`", text))


def build_context(files: Dict[str, List[Token]],
                  repo: Optional[Path] = None) -> AnalysisContext:
    ctx = AnalysisContext()
    ctx.symbols = build_symbol_index(files)
    ctx.repo = repo
    ctx.metric_reference = _load_metric_reference(repo)
    for tokens in files.values():
        for i, t in enumerate(tokens):
            if t.text in UNORDERED_CONTAINERS:
                j = i + 1
                if j < len(tokens) and tokens[j].text == "<":
                    close = find_matching(tokens, j, "<", ">")
                    if close != -1 and close + 1 < len(tokens):
                        name_tok = tokens[close + 1]
                        if name_tok.kind == "ident":
                            ctx.unordered_names.add(name_tok.text)
    return ctx


def _prev_text(tokens: List[Token], i: int) -> str:
    return tokens[i - 1].text if i > 0 else ""


def _is_member_or_qualified(tokens: List[Token], i: int) -> bool:
    return _prev_text(tokens, i) in (".", "->", "::")


def _in_tests(path: str) -> bool:
    return path.startswith("tests/")


# --------------------------------------------------------------------------
# R1: nondeterminism sources
# --------------------------------------------------------------------------
def rule_r1(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    wall_clock_ok = path.startswith(WALL_CLOCK_ALLOWED_PREFIXES)
    for i, t in enumerate(tokens):
        if t.kind != "ident":
            continue
        if t.text == "random_device":
            findings.append(
                Finding(path, t.line, "R1", "std::random_device is nondeterministic",
                        "seed a sim::Rng from the simulation seed instead")
            )
        elif t.text in ("rand", "srand", "rand_r"):
            if match_seq(tokens, i + 1, "(") and not (
                _prev_text(tokens, i) in (".", "->")
            ):
                findings.append(
                    Finding(path, t.line, "R1", f"C library {t.text}() uses hidden global state",
                            "use sim::Rng forked from a named stream")
                )
        elif t.text in WALL_CLOCK_IDENTS and not wall_clock_ok:
            findings.append(
                Finding(path, t.line, "R1", f"wall-clock read via {t.text}",
                        "simulated code must use sim::SimTime / Simulation::now()")
            )
        elif t.text == "time" and match_seq(tokens, i - 1, "::", "time") and not wall_clock_ok:
            # std::time(...) / ::time(...) — not SimTime (type use, no call),
            # not member calls like sim.time().
            if match_seq(tokens, i + 1, "("):
                findings.append(
                    Finding(path, t.line, "R1", "wall-clock read via time()",
                            "simulated code must use sim::SimTime / Simulation::now()")
                )
        elif t.text in ("map", "set") and match_seq(tokens, i - 1, "::", t.text):
            # std::map/std::set keyed by a pointer type: iteration order is
            # the pointer order — an address-space-layout dependency.
            if match_seq(tokens, i + 1, "<"):
                close = find_matching(tokens, i + 1, "<", ">")
                if close != -1:
                    # First template argument: up to the first comma at depth 0.
                    depth = 0
                    first_arg_end = close
                    for j in range(i + 2, close):
                        tj = tokens[j].text
                        if tj in ("<", "(", "["):
                            depth += 1
                        elif tj in (">", ")", "]", ">>"):
                            depth -= 2 if tj == ">>" else 1
                        elif tj == "," and depth == 0:
                            first_arg_end = j
                            break
                    if first_arg_end > i + 2 and tokens[first_arg_end - 1].text == "*":
                        findings.append(
                            Finding(path, t.line, "R1",
                                    f"std::{t.text} keyed by a pointer type iterates in address order",
                                    "key by a stable id (FlowId, NodeId, name) instead of a pointer")
                        )
    return findings + r1_std_random(path, tokens, ctx) + r1_raw_time(path, tokens, ctx)


def r1_std_random(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.kind != "ident" or not match_seq(tokens, i - 2, "std", "::"):
            continue
        if t.text in STD_RANDOM_ENGINES or t.text.endswith("_distribution"):
            findings.append(
                Finding(path, t.line, "R1",
                        f"std::{t.text} bypasses sim::Rng",
                        "draw from a sim::Rng forked from a named stream (std "
                        "distributions differ across standard libraries)")
            )
    return findings


def r1_raw_time(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if path == RAW_TIME_HOME:
        return []
    return [
        Finding(path, t.line, "R1",
                f"raw picosecond-scale literal {t.text} bypasses sim::SimTime",
                "use the SimTime factories (seconds/milliseconds/...) instead "
                "of tick arithmetic")
        for t in tokens
        if t.kind == "number" and RAW_TIME_RE.match(t.text)
    ]


# --------------------------------------------------------------------------
# R2: unordered iteration with observable effects
# --------------------------------------------------------------------------
def _statement_is_collect_into_local(body: List[Token]) -> str | None:
    """Returns the local collector name if the body is exactly
    `local.push_back(...);` / `local.insert(...);` / `local.emplace_back(...);`."""
    if len(body) < 5:
        return None
    if body[0].kind != "ident" or body[1].text != ".":
        return None
    if body[2].text not in ("push_back", "insert", "emplace_back"):
        return None
    if body[3].text != "(":
        return None
    close = find_matching(body, 3, "(", ")")
    if close == -1 or close + 1 >= len(body):
        return None
    rest = [t.text for t in body[close + 1 :]]
    return body[0].text if rest == [";"] else None


def rule_r2(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.text != "for" or not match_seq(tokens, i + 1, "("):
            continue
        close_paren = find_matching(tokens, i + 1, "(", ")")
        if close_paren == -1:
            continue
        head = tokens[i + 2 : close_paren]
        colon_idx = next(
            (k for k, ht in enumerate(head) if ht.text == ":" ), None
        )
        if colon_idx is None:
            continue  # classic for loop
        range_expr = head[colon_idx + 1 :]
        iterated = [ht.text for ht in range_expr if ht.kind == "ident"]
        if not any(name in ctx.unordered_names for name in iterated):
            continue
        # Loop body: brace block or single statement.
        body_start = close_paren + 1
        if body_start >= len(tokens):
            continue
        if tokens[body_start].text == "{":
            body_end = find_matching(tokens, body_start, "{", "}")
            if body_end == -1:
                continue
            body = tokens[body_start + 1 : body_end]
            after = tokens[body_end + 1 : body_end + 16]
        else:
            j = body_start
            while j < len(tokens) and tokens[j].text != ";":
                j += 1
            body = tokens[body_start : j + 1]
            after = tokens[j + 1 : j + 16]
        collector = _statement_is_collect_into_local(body)
        if collector is not None:
            # Sanctioned pattern: push keys into a local, then sort it.
            sorted_after = any(
                match_seq(after, k, "std", "::", "sort", "(")
                and k + 4 < len(after)
                and after[k + 4].text == collector
                for k in range(len(after))
            )
            if sorted_after:
                continue
        findings.append(
            Finding(path, t.line, "R2",
                    "iteration over an unordered container with observable effects "
                    "(order depends on hash layout)",
                    "collect keys into a vector and std::sort before acting, use an "
                    "ordered container, or justify with "
                    "// rbs-analyze: allow(R2) -- <reason>")
        )
    return findings + r2_unordered_decl(path, tokens, ctx)


def r2_unordered_decl(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    """Every spelled std::unordered_* needs a justification up front: a
    lookup-only container today is one range-for away from hash-order
    output, and the declaration is where the proof belongs."""
    findings: List[Finding] = []
    lines: Set[int] = set()
    for i, t in enumerate(tokens):
        if t.text not in UNORDERED_CONTAINERS or t.line in lines:
            continue
        if match_seq(tokens, i - 2, "std", "::") and match_seq(tokens, i + 1, "<"):
            lines.add(t.line)
            findings.append(
                Finding(path, t.line, "R2",
                        f"std::{t.text} declared without a justification "
                        "(its iteration order is the hash layout)",
                        "use an ordered container, or justify with "
                        "// rbs-analyze: allow(R2) -- <proof it is lookup-only "
                        "or iterated via sorted keys>")
            )
    return findings


# --------------------------------------------------------------------------
# R3: raw unit-suffixed scalars on public API boundaries (headers)
# --------------------------------------------------------------------------
def rule_r3(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if not path.endswith((".hpp", ".h")) or not path.startswith("src/"):
        return []
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.kind != "ident" or t.text not in RAW_SCALAR_TYPES:
            continue
        # Skip the qualifier tokens: std :: int64_t — land on int64_t only.
        if _prev_text(tokens, i) == "::" and not match_seq(tokens, i - 2, "std"):
            continue
        j = i + 1
        if j < len(tokens) and tokens[j].kind == "ident":
            name = tokens[j].text
            stripped = name[:-1] if name.endswith("_") else name
            if not stripped.endswith(UNIT_SUFFIXES):
                continue
            nxt = tokens[j + 1].text if j + 1 < len(tokens) else ""
            # Parameter (`, name)` / `name,`), member (`name;` / `name{...};`),
            # or defaulted (`name = ...`). A following `(` would be a function
            # declarator — out of scope for R3.
            if nxt in (";", ",", ")", "{", "="):
                unit = "sim::SimTime" if stripped.endswith("_ps") or stripped.endswith("_seconds") else (
                    "core::Bytes" if stripped.endswith("_bytes") else (
                        "core::BitsPerSec" if stripped.endswith("_bps") else "core::Packets"))
                findings.append(
                    Finding(path, t.line, "R3",
                            f"raw {t.text} '{name}' carries a unit in its name",
                            f"use the strong type {unit} (src/core/units.hpp) across this API")
                )
    return findings


# --------------------------------------------------------------------------
# R4: RNG discipline
# --------------------------------------------------------------------------
def rule_r4(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if _in_tests(path):
        return []
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.text != "Rng" or t.kind != "ident":
            continue
        j = i + 1
        # `Rng name ...` or a braced temporary `Rng{...}`.
        name_tok = None
        if j < len(tokens) and tokens[j].kind == "ident":
            name_tok = tokens[j]
            j += 1
        if j >= len(tokens):
            continue
        nxt = tokens[j].text
        if name_tok is not None and nxt == ";":
            # `Rng rng_;` (trailing underscore) is a member declaration whose
            # seeding happens in the constructor init list — the construction
            # site there is what gets checked, not the declaration.
            if name_tok.text.endswith("_"):
                continue
            findings.append(
                Finding(path, t.line, "R4",
                        f"Rng '{name_tok.text}' default-constructed (unseeded)",
                        "fork from a named stream: sim.rng().fork(kMyStream)")
            )
        elif nxt in ("{", "("):
            close = find_matching(tokens, j, nxt, "}" if nxt == "{" else ")")
            if close == -1:
                continue
            args = tokens[j + 1 : close]
            if len(args) == 1 and args[0].kind == "number":
                findings.append(
                    Finding(path, t.line, "R4",
                            "Rng seeded with a bare integer literal",
                            "derive from the run seed via a named stream: "
                            "sim.rng().fork(kMyStream) or Rng{config.seed}")
                )
    return findings + r4_empty_brace(path, tokens, ctx)


def r4_empty_brace(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    """`Rng a{}` and `Rng{}`: value-initialized, so unseeded. `Rng();` is
    a constructor declaration, not a construction, and is left alone."""
    if _in_tests(path):
        return []
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.text != "Rng" or t.kind != "ident":
            continue
        j = i + 1
        name = "temporary"
        if j < len(tokens) and tokens[j].kind == "ident":
            name = f"'{tokens[j].text}'"
            j += 1
        if match_seq(tokens, j, "{", "}"):
            findings.append(
                Finding(path, t.line, "R4",
                        f"Rng {name} value-initialized with {{}} (unseeded)",
                        "fork from a named stream: sim.rng().fork(kMyStream)")
            )
    return findings


# --------------------------------------------------------------------------
# R5: event-callback lifetime
# --------------------------------------------------------------------------
def _lambda_captures_by_ref(tokens: List[Token], open_bracket: int) -> bool:
    """True if the capture list contains a by-reference capture: `[&]`,
    `[&, ...]`, `[&x]`, or the init form `[&x = expr]`. An `&` that is not
    at the start of a capture (e.g. `[p = &obj]`) is address-of, not a
    by-reference capture."""
    close = find_matching(tokens, open_bracket, "[", "]")
    if close == -1:
        return False
    caps = tokens[open_bracket + 1 : close]
    for k, tok in enumerate(caps):
        if tok.text == "&" and (k == 0 or caps[k - 1].text == ","):
            return True
    return False


def rule_r5(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.kind != "ident" or t.text not in SCHEDULER_CALLS:
            continue
        if not _is_member_or_qualified(tokens, i):
            continue  # only method calls: sim.after(...), scheduler_->at(...)
        if not match_seq(tokens, i + 1, "("):
            continue
        close = find_matching(tokens, i + 1, "(", ")")
        if close == -1:
            continue
        j = i + 2
        while j < close:
            if tokens[j].text == "[" and tokens[j - 1].text in ("(", ","):
                if _lambda_captures_by_ref(tokens, j):
                    findings.append(
                        Finding(path, tokens[j].line, "R5",
                                f"by-reference capture in a lambda passed to {t.text}() — "
                                "the pooled event may outlive the captured frame",
                                "capture by value (or capture `this` and use members); "
                                "events fire after the enclosing scope returns")
                    )
                lam_close = find_matching(tokens, j, "[", "]")
                j = lam_close + 1 if lam_close != -1 else j + 1
                continue
            j += 1
    return findings


# --------------------------------------------------------------------------
# R6: shared state written inside a parallel region
# --------------------------------------------------------------------------
def _explicit_ref_captures(tokens: List[Token], open_bracket: int) -> Set[str]:
    """Names explicitly captured by reference in a lambda's capture list:
    `[&x]`, `[&x, ...]`, and the init form `[&x = expr]` all yield x. A
    blanket `[&]` yields nothing — bare identifiers in the body cannot be
    told apart from lambda locals, so the blanket form is out of scope
    (documented imprecision; the thread-safety analysis covers fields)."""
    close = find_matching(tokens, open_bracket, "[", "]")
    if close == -1:
        return set()
    caps = tokens[open_bracket + 1 : close]
    names: Set[str] = set()
    for k, tok in enumerate(caps):
        if tok.text == "&" and (k == 0 or caps[k - 1].text == ","):
            if k + 1 < len(caps) and caps[k + 1].kind == "ident":
                names.add(caps[k + 1].text)
    return names


def _lambda_body_range(tokens: List[Token], open_bracket: int) -> Tuple[int, int]:
    """(body_start, body_end) token indices of the lambda's compound body
    (exclusive of the braces), or (-1, -1) if this is not a lambda."""
    close = find_matching(tokens, open_bracket, "[", "]")
    if close == -1:
        return -1, -1
    j = close + 1
    if j < len(tokens) and tokens[j].text == "(":
        params_close = find_matching(tokens, j, "(", ")")
        if params_close == -1:
            return -1, -1
        j = params_close + 1
    # Skip mutable/noexcept/-> trailing-return up to the body.
    while j < len(tokens) and tokens[j].text != "{":
        if tokens[j].text in (";", ")", ",", "]", "}"):
            return -1, -1
        j += 1
    if j >= len(tokens):
        return -1, -1
    body_close = find_matching(tokens, j, "{", "}")
    if body_close == -1:
        return -1, -1
    return j + 1, body_close


def _skip_group_backwards(body: List[Token], k: int, close: str, open_: str) -> int:
    depth = 0
    while k >= 0:
        if body[k].text == close:
            depth += 1
        elif body[k].text == open_:
            depth -= 1
            if depth == 0:
                break
        k -= 1
    return k - 1


def _lvalue_base(body: List[Token], p: int) -> Tuple[Optional[int], bool]:
    """Walks the lvalue chain ending at body[p] back to its base identifier.
    Returns (index of the base ident, saw_subscript)."""
    subscripted = False
    k = p
    while k >= 0:
        t = body[k].text
        if t == "]":
            k = _skip_group_backwards(body, k, "]", "[")
            subscripted = True
            continue
        if t == ")":
            k = _skip_group_backwards(body, k, ")", "(")
            continue
        if body[k].kind == "ident":
            if k >= 1 and body[k - 1].text in (".", "->", "::"):
                k -= 2
                continue
            return k, subscripted
        if t == "*":
            k -= 1
            continue
        return None, subscripted
    return None, subscripted


def _shared_write_targets(body: List[Token]) -> List[Tuple[Token, bool]]:
    """(base identifier token, subscripted) for every write in `body`:
    assignments, compound assignments, increments/decrements, and container
    mutator calls."""
    out: List[Tuple[Token, bool]] = []
    for idx, tok in enumerate(body):
        if tok.text in _ASSIGN_OPS and idx > 0:
            base, subscripted = _lvalue_base(body, idx - 1)
            if base is None:
                continue
            if tok.text == "=":
                # Declarations (`int x = 5;`, `auto& r = ...;`) and init
                # captures / designated initializers are not shared writes.
                before = body[base - 1].text if base > 0 else ""
                before_kind = body[base - 1].kind if base > 0 else ""
                if before_kind == "ident" or before in ("&", "*", ">", ">>", "[", ",", "."):
                    continue
            out.append((body[base], subscripted))
        elif tok.text in ("++", "--"):
            p = None
            if idx > 0 and (body[idx - 1].kind == "ident" or body[idx - 1].text in ("]", ")")):
                p = idx - 1  # postfix
            elif idx + 1 < len(body) and body[idx + 1].kind == "ident":
                # Prefix: the chain extends to the right; find its end.
                q = idx + 1
                while q + 2 < len(body) and body[q + 1].text in (".", "->", "::") \
                        and body[q + 2].kind == "ident":
                    q += 2
                if q + 1 < len(body) and body[q + 1].text == "[":
                    sub_close = find_matching(body, q + 1, "[", "]")
                    if sub_close != -1:
                        q = sub_close
                p = q
            if p is not None:
                base, subscripted = _lvalue_base(body, p)
                if base is not None:
                    out.append((body[base], subscripted))
        elif tok.kind == "ident" and tok.text in CONTAINER_MUTATORS and idx >= 2 \
                and body[idx - 1].text in (".", "->") \
                and idx + 1 < len(body) and body[idx + 1].text == "(":
            base, subscripted = _lvalue_base(body, idx - 2)
            if base is not None:
                out.append((body[base], subscripted))
    return out


def _parallel_call_lambdas(tokens: List[Token]):
    """Yields (call_name, capture_open_index) for every lambda argument of a
    parallel-dispatch call (run_indexed / map / set_observer)."""
    for i, t in enumerate(tokens):
        if t.kind != "ident" or t.text not in PARALLEL_CALLS:
            continue
        if not _is_member_or_qualified(tokens, i):
            continue
        j = i + 1
        if j < len(tokens) and tokens[j].text == "<":  # map<R>(...)
            tmpl_close = find_matching(tokens, j, "<", ">")
            if tmpl_close != -1:
                j = tmpl_close + 1
        if not match_seq(tokens, j, "("):
            continue
        close = find_matching(tokens, j, "(", ")")
        if close == -1:
            continue
        k = j + 1
        while k < close:
            if tokens[k].text == "[" and tokens[k - 1].text in ("(", ",", "{"):
                yield t.text, k
                # Skip the whole lambda (capture list, params, body): lambdas
                # nested inside it are scheduler callbacks, not sweep points,
                # and must only be judged against the outer capture list.
                _, body_end = _lambda_body_range(tokens, k)
                if body_end != -1:
                    k = body_end + 1
                else:
                    lam_close = find_matching(tokens, k, "[", "]")
                    k = lam_close + 1 if lam_close != -1 else k + 1
                continue
            k += 1


def rule_r6(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if _in_tests(path):
        return []
    findings: List[Finding] = []

    # Prong (a): writes through explicitly by-ref-captured names inside a
    # lambda handed to the parallel sweep engine. Index-addressed targets
    # (`out[i] = ...`) are the sanctioned disjoint-slot contract.
    for call_name, cap_open in _parallel_call_lambdas(tokens):
        ref_caps = _explicit_ref_captures(tokens, cap_open)
        if not ref_caps:
            continue
        body_start, body_end = _lambda_body_range(tokens, cap_open)
        if body_start == -1:
            continue
        body = tokens[body_start:body_end]
        seen: Set[Tuple[str, int]] = set()
        for base_tok, subscripted in _shared_write_targets(body):
            if subscripted or base_tok.text not in ref_caps:
                continue
            cls = ctx.symbols.field_classification(base_tok.text)
            if cls in _SANCTIONED_WRITE_CLASSES:
                continue
            key = (base_tok.text, base_tok.line)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(path, base_tok.line, "R6",
                        f"'{base_tok.text}' is captured by reference and written "
                        f"inside a {call_name}() lambda — sweep workers race on it",
                        "give each point its own slot (write through the point index "
                        "into a preallocated array), use std::atomic, or guard it "
                        "with RBS_GUARDED_BY + core::LockGuard")
            )

    # Prong (b): a class that owns threads/mutexes/condition variables is
    # cross-thread by construction; every mutable member must carry a
    # concurrency classification (atomic / RBS_GUARDED_BY / const). Unclassified members are exactly the state -Wthread-safety
    # cannot see. The concurrency-primitive layer itself (annotation
    # wrappers, the model-checker scheduler) is sanctioned: it is the
    # instrument these classifications are expressed in, and its own
    # synchronization (a single controller/vthread baton documented in
    # check/mc/scheduler.hpp) has no per-field spelling.
    if path.startswith("src/") and not path.startswith(MC_SANCTIONED_PREFIXES):
        for cls_info in ctx.symbols.classes:
            if cls_info.file != path or not cls_info.cross_thread:
                continue
            for field in cls_info.fields:
                if field.classification != "plain":
                    continue
                findings.append(
                    Finding(path, field.line, "R6",
                            f"field '{field.name}' of cross-thread class "
                            f"'{cls_info.name}' has no concurrency classification",
                            "classify it: std::atomic, RBS_GUARDED_BY(mutex), or "
                            "const — the thread-safety analysis cannot check what "
                            "is not annotated")
                )
    return findings


# --------------------------------------------------------------------------
# R7: pooled-event lifetime across a recycle point
# --------------------------------------------------------------------------
def _slot_bound_names(tokens: List[Token]) -> Set[str]:
    """Local names bound to EventPool slots: `EventPool::Slot& s = ...`,
    `EventPool::Slot* p = ...`, and `auto& s = pool_[...]`."""
    names: Set[str] = set()
    for i, t in enumerate(tokens):
        if t.text == "Slot" and match_seq(tokens, i - 2, "EventPool", "::"):
            j = i + 1
            while j < len(tokens) and tokens[j].text in ("&", "*", "const"):
                j += 1
            if j < len(tokens) and tokens[j].kind == "ident":
                names.add(tokens[j].text)
        elif t.text == "auto" and match_seq(tokens, i + 1, "&") \
                and i + 2 < len(tokens) and tokens[i + 2].kind == "ident" \
                and match_seq(tokens, i + 3, "="):
            k = i + 4
            while k < len(tokens) and tokens[k].text != ";":
                if tokens[k].kind == "ident" and "pool" in tokens[k].text.lower() \
                        and match_seq(tokens, k + 1, "["):
                    names.add(tokens[i + 2].text)
                    break
                k += 1
    return names


def rule_r7(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if _in_tests(path) or path.startswith(POOL_LIFETIME_ALLOWED_PREFIXES):
        return []
    slot_names = _slot_bound_names(tokens)
    if not slot_names:
        return []
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.kind != "ident" or t.text not in SCHEDULER_CALLS:
            continue
        if not _is_member_or_qualified(tokens, i):
            continue
        if not match_seq(tokens, i + 1, "("):
            continue
        close = find_matching(tokens, i + 1, "(", ")")
        if close == -1:
            continue
        j = i + 2
        while j < close:
            if tokens[j].text == "[" and tokens[j - 1].text in ("(", ","):
                cap_close = find_matching(tokens, j, "[", "]")
                if cap_close != -1:
                    captured = {tok.text for tok in tokens[j + 1 : cap_close]
                                if tok.kind == "ident"}
                    for name in sorted(captured & slot_names):
                        findings.append(
                            Finding(path, tokens[j].line, "R7",
                                    f"pooled event slot '{name}' captured into a "
                                    f"{t.text}() callback — the slot can be recycled "
                                    "(and its 128-byte big-slot storage reused) "
                                    "before the event fires",
                                    "copy the data you need into the callback, or "
                                    "keep an EventHandle and re-resolve it when the "
                                    "event fires; slot references die at the next "
                                    "pool recycle")
                        )
                j = cap_close + 1 if cap_close != -1 else j + 1
                continue
            j += 1
    return findings


# --------------------------------------------------------------------------
# R8: scheduler-backend purity outside profile/stats paths
# --------------------------------------------------------------------------
def rule_r8(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if _in_tests(path) or path.startswith(BACKEND_PURITY_ALLOWED_PREFIXES):
        return []
    findings: List[Finding] = []
    seen_lines: Set[int] = set()

    def emit(line: int, what: str) -> None:
        if line in seen_lines:
            return
        seen_lines.add(line)
        findings.append(
            Finding(path, line, "R8",
                    f"simulation-semantics code branches on the scheduler backend "
                    f"({what}) — both backends fire bitwise-identically, so any "
                    "behavioral difference here is a determinism bug",
                    "keep backend probes inside src/sim/, src/telemetry/ profile "
                    "paths, or bench/; if this read is stats-only, justify with "
                    "// rbs-analyze: allow(R8) -- <reason>")
        )

    for i, t in enumerate(tokens):
        if t.kind != "ident":
            continue
        if t.text in ("kHeap", "kWheel", "kAuto") \
                and match_seq(tokens, i - 2, "SchedulerBackend", "::"):
            before = tokens[i - 3].text if i >= 3 else ""
            after = tokens[i + 1].text if i + 1 < len(tokens) else ""
            if before in ("==", "!=", "case") or after in ("==", "!="):
                emit(t.line, f"comparison against SchedulerBackend::{t.text}")
        elif t.text == "backend" and _is_member_or_qualified(tokens, i) \
                and match_seq(tokens, i + 1, "(", ")"):
            after = tokens[i + 3].text if i + 3 < len(tokens) else ""
            # Walk left over the object chain (`x == sim.scheduler().backend()`).
            k = i - 1
            while k >= 0:
                tk = tokens[k].text
                if tk in (".", "->", "::") or tokens[k].kind == "ident":
                    k -= 1
                    continue
                if tk == ")":
                    depth = 0
                    while k >= 0:
                        if tokens[k].text == ")":
                            depth += 1
                        elif tokens[k].text == "(":
                            depth -= 1
                            if depth == 0:
                                break
                        k -= 1
                    k -= 1
                    continue
                break
            before = tokens[k].text if k >= 0 else ""
            if after in ("==", "!=") or before in ("==", "!="):
                emit(t.line, "comparison of backend()")
        elif t.text == "wheel_stats" and _is_member_or_qualified(tokens, i) \
                and match_seq(tokens, i + 1, "("):
            emit(t.line, "read of wheel backend internals via wheel_stats()")
    return findings


# --------------------------------------------------------------------------
# R9: undocumented metric / trace names
# --------------------------------------------------------------------------
# The metrics-name reference table in docs/observability.md is normative:
# every metric registered on a MetricsRegistry and every trace category or
# event name emitted as a string literal in src/ must appear there
# (backticked). Names built at runtime (variables, concatenation) are out of
# scope — the rule checks only literal arguments in name positions.

_R9_REGISTRY_CALL_RE = re.compile(r"(?:\.|->)\s*(?:counter|gauge|histogram)\s*\(")
_R9_TRACE_METHOD_RE = re.compile(
    r"(?:\.|->)\s*(?:instant|complete|instant_with_detail)\s*\(")
_R9_TRACE_MACRO_RE = re.compile(r"\bRBS_TRACE_(?:INSTANT|COMPLETE|COUNTER)\s*\(")
_R9_STRING_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _r9_strip_comments(text: str) -> str:
    """Blanks comments while preserving offsets and line structure."""

    def blank(m: "re.Match[str]") -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", blank, text)


def _r9_call_args(text: str, open_paren: int) -> List[Tuple[str, int]]:
    """Splits the argument list of the call whose '(' sits at `open_paren`
    into top-level (arg_text, start_offset) pairs."""
    args: List[Tuple[str, int]] = []
    depth = 1
    start = i = open_paren + 1
    in_string = False
    while i < len(text):
        c = text[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append((text[start:i], start))
                return args
        elif c == "," and depth == 1:
            args.append((text[start:i], start))
            start = i + 1
        i += 1
    return args


def rule_r9(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if not path.startswith("src/"):
        return []
    if ctx.repo is None or ctx.metric_reference is None:
        return []
    try:
        raw = (ctx.repo / path).read_text(errors="replace")
    except OSError:
        return []
    text = _r9_strip_comments(raw)
    findings: List[Finding] = []

    def check_args(args: List[Tuple[str, int]]) -> None:
        for arg, start in args:
            m = _R9_STRING_LITERAL_RE.fullmatch(arg.strip())
            if m is None:
                continue  # runtime-built name: out of scope
            name = m.group(1)
            if name in ctx.metric_reference:
                continue
            line = text.count("\n", 0, start) + 1
            findings.append(
                Finding(path, line, "R9",
                        f'metric/trace name "{name}" is not in the '
                        "docs/observability.md reference",
                        "add it to the metrics-name reference table "
                        "(the table is normative) or reuse a documented name")
            )

    for m in _R9_REGISTRY_CALL_RE.finditer(text):
        # Name position: first argument. This also covers
        # TraceSession::counter, whose first argument is the category.
        check_args(_r9_call_args(text, m.end() - 1)[:1])
    for m in _R9_TRACE_METHOD_RE.finditer(text):
        # Category and event name.
        check_args(_r9_call_args(text, m.end() - 1)[:2])
    for m in _R9_TRACE_MACRO_RE.finditer(text):
        # Argument 0 is the session expression; 1 and 2 are cat and name.
        check_args(_r9_call_args(text, m.end() - 1)[1:3])
    return findings


# --------------------------------------------------------------------------
# R10: raw concurrency primitives outside the sanctioned wrapper layer
# --------------------------------------------------------------------------
# Every std::atomic / std::mutex / std::condition_variable (and the
# shared/recursive/any variants) spelled in src/ must live in the
# concurrency-primitive layer (MC_SANCTIONED_PREFIXES). Everywhere else the
# MC-wrappable spellings — check::mc::Atomic / check::mc::Mutex /
# check::mc::CondVar, or core::AnnotatedMutex — are required: they compile
# to the std types when RBS_MODEL_CHECK is off, and a raw primitive is state
# the interleaving explorer can never schedule around.

RAW_PRIMITIVE_TOKENS = {
    "atomic",
    "mutex",
    "shared_mutex",
    "recursive_mutex",
    "condition_variable",
    "condition_variable_any",
}

_RAW_PRIMITIVE_REPLACEMENT = {
    "atomic": "check::mc::Atomic<T> (src/check/mc/types.hpp)",
    "mutex": "check::mc::Mutex or core::AnnotatedMutex",
    "shared_mutex": "check::mc::Mutex or core::AnnotatedMutex",
    "recursive_mutex": "check::mc::Mutex or core::AnnotatedMutex",
    "condition_variable": "check::mc::CondVar",
    "condition_variable_any": "check::mc::CondVar",
}


def rule_r10(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if not path.startswith("src/") or path.startswith(MC_SANCTIONED_PREFIXES):
        return []
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.kind != "ident" or t.text not in RAW_PRIMITIVE_TOKENS:
            continue
        if not (i >= 2 and tokens[i - 1].text == "::" and tokens[i - 2].text == "std"):
            continue
        findings.append(
            Finding(path, t.line, "R10",
                    f"raw std::{t.text} outside the sanctioned wrapper layer "
                    "(src/core/thread_annotations.hpp, src/check/mc/)",
                    f"use {_RAW_PRIMITIVE_REPLACEMENT[t.text]} — identical codegen "
                    "with RBS_MODEL_CHECK off, schedulable by the interleaving "
                    "explorer with it on")
        )
    return findings


# --------------------------------------------------------------------------
# R11: memory-order audit
# --------------------------------------------------------------------------
# Error prong: a memory_order_relaxed load in a branch condition whose body
# frees or resets an object (`delete` / `free(...)` / `.reset(...)`). A
# relaxed load carries no happens-before edge, so the branch can observe the
# flag before the writes it is meant to publish — freeing on its say-so is a
# use-after-free window. Informational prong: an explicit
# memory_order_seq_cst argument restates the default; either drop it or
# weaken to the acquire/release pair the algorithm actually needs.

_R11_FREE_IDENTS = {"delete", "free", "reset"}


def _r11_condition_has_relaxed_load(cond: List[Token]) -> Optional[Token]:
    for k, t in enumerate(cond):
        if t.kind == "ident" and t.text == "load" and match_seq(cond, k + 1, "("):
            close = find_matching(cond, k + 1, "(", ")")
            if close == -1:
                continue
            if any(a.text == "memory_order_relaxed" for a in cond[k + 2 : close]):
                return t
    return None


def rule_r11(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if not path.startswith("src/") or path.startswith(MC_SANCTIONED_PREFIXES):
        return []
    findings: List[Finding] = []
    for i, t in enumerate(tokens):
        if t.kind != "ident":
            continue
        if t.text == "memory_order_seq_cst":
            findings.append(
                Finding(path, t.line, "R11",
                        "explicit memory_order_seq_cst restates the default",
                        "drop the argument, or weaken to the acquire/release "
                        "pair the protocol needs and document the edge",
                        severity="info")
            )
        elif t.text in ("if", "while") and match_seq(tokens, i + 1, "("):
            close = find_matching(tokens, i + 1, "(", ")")
            if close == -1:
                continue
            load_tok = _r11_condition_has_relaxed_load(tokens[i + 2 : close])
            if load_tok is None:
                continue
            body_start = close + 1
            if body_start >= len(tokens):
                continue
            if tokens[body_start].text == "{":
                body_end = find_matching(tokens, body_start, "{", "}")
                if body_end == -1:
                    continue
                body = tokens[body_start + 1 : body_end]
            else:
                j = body_start
                while j < len(tokens) and tokens[j].text != ";":
                    j += 1
                body = tokens[body_start:j]
            frees = any(b.kind == "ident" and b.text in _R11_FREE_IDENTS
                        for b in body)
            if frees:
                findings.append(
                    Finding(path, load_tok.line, "R11",
                            "relaxed load guards a free/reset branch — no "
                            "happens-before edge orders the freed object's "
                            "last use before this observation",
                            "load with std::memory_order_acquire (paired with "
                            "a release store on the publishing side), or hold "
                            "the owning mutex across the branch")
                )
    return findings


# --------------------------------------------------------------------------
# R12: cross-thread class fields not expressed via MC-wrappable types
# --------------------------------------------------------------------------
# A cross-thread class (one owning sync members — see symbols.py) whose
# fields spell raw std primitives can never run under the interleaving
# explorer: the model checker schedules only through check::mc::Atomic /
# Mutex / CondVar (which ARE the std types when RBS_MODEL_CHECK is off).
# One finding per class, naming every unwrappable field.


def rule_r12(path: str, tokens: List[Token], ctx: AnalysisContext) -> List[Finding]:
    if not path.startswith("src/") or path.startswith(MC_SANCTIONED_PREFIXES):
        return []
    findings: List[Finding] = []
    for cls_info in ctx.symbols.classes:
        if cls_info.file != path or not cls_info.cross_thread:
            continue
        raw_fields = [f.name for f in cls_info.fields if f.raw_sync]
        if not raw_fields:
            continue
        findings.append(
            Finding(path, cls_info.line, "R12",
                    f"cross-thread class '{cls_info.name}' holds raw-primitive "
                    f"field(s) {', '.join(repr(n) for n in raw_fields)} — it "
                    "cannot be driven by the interleaving explorer",
                    "spell them as check::mc::Atomic / check::mc::Mutex / "
                    "check::mc::CondVar (or core::AnnotatedMutex): identical "
                    "codegen with RBS_MODEL_CHECK off, and the class becomes "
                    "modelable in tests/mc/")
        )
    return findings


ALL_RULES = {
    "R1": rule_r1,
    "R2": rule_r2,
    "R3": rule_r3,
    "R4": rule_r4,
    "R5": rule_r5,
    "R6": rule_r6,
    "R7": rule_r7,
    "R8": rule_r8,
    "R9": rule_r9,
    "R10": rule_r10,
    "R11": rule_r11,
    "R12": rule_r12,
}
