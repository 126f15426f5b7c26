"""rbs-analyze: simulator-semantics static analysis for the rbs codebase.

An AST-grounded analyzer with simulator-specific rules, and the repo's one
determinism checker:

  R1  nondeterminism sources (random_device, rand, std engines and
      distributions, wall clocks, pointer-keyed ordered containers, raw
      picosecond literals outside src/sim/time.hpp) outside an allowlist
  R2  unordered_map/unordered_set declared without a justification, or
      iterated by a loop body with observable effects
  R3  raw double/int64 parameters or members with unit-suffixed names
      (_ps/_seconds/_bytes/_bps/_pkts) crossing public API boundaries
      instead of the strong types in src/core/units.hpp and sim/time.hpp
  R4  RNG discipline: every Rng forked from a named stream, never
      default-, empty-brace- or literal-seeded outside tests/
  R5  event-callback lifetime: no by-reference captures in lambdas handed
      to the pooled scheduler (schedule_at/schedule_after/at/after)
  R6  concurrency classification: no writes through by-ref captures inside
      parallel sweep lambdas, and every mutable field of a cross-thread
      class (one owning mutexes/threads) must be atomic, RBS_GUARDED_BY,
      or const
  R7  pooled-event lifetime: no EventPool slot reference/pointer captured
      into a scheduled callback that outlives the slot's recycle point
  R8  backend purity: simulation-semantics code must not branch on the
      SchedulerBackend kind or read wheel internals outside src/sim/,
      telemetry profile paths, and bench/
  R10 raw std::atomic/std::mutex/std::condition_variable outside the
      sanctioned wrapper layer (src/core/thread_annotations.hpp,
      src/check/mc/) — everywhere else the check::mc wrappers are required
  R11 memory-order audit: a relaxed load guarding a free/reset branch is an
      error (no happens-before edge); an explicit memory_order_seq_cst is
      informational (it restates the default)
  R12 cross-thread classes whose fields spell raw std primitives instead of
      the MC-wrappable types — such classes can never run under the
      interleaving explorer (tests/mc/)

R6–R8 consume a cross-TU symbol index (symbols.py) of per-class member
concurrency classifications, built over every analyzed file.

Two interchangeable backends produce the same findings model:

  * ``clang``   — libclang Python bindings over compile_commands.json,
                  used automatically when ``import clang.cindex`` works.
                  R6–R8 are delegated to the shared token engine even here:
                  libclang does not surface the GNU thread-safety
                  attributes the classifications hinge on, and the
                  delegation guarantees backend-identical findings.
  * ``textual`` — a self-contained C++ lexer; no dependencies beyond the
                  standard library, so the analyzer runs in any container.

Findings are governed by a checked-in baseline (baseline.json) with a
ratchet: per-(rule, file) counts may only go down. See
docs/static_analysis.md for the workflow and suppression syntax.
"""

__version__ = "1.2"

RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
         "R10", "R11", "R12")

RULE_TITLES = {
    "R1": "nondeterminism source",
    "R2": "unordered iteration with observable effects",
    "R3": "raw unit-suffixed scalar on a public API boundary",
    "R4": "RNG not forked from a named stream",
    "R5": "by-reference capture in a pooled scheduler callback",
    "R6": "shared state written in a parallel region without classification",
    "R7": "pooled event slot captured across a recycle point",
    "R8": "scheduler-backend branch outside profile/stats paths",
    "R9": "metric/trace name not in the documented reference",
    "R10": "raw concurrency primitive outside the sanctioned wrapper layer",
    "R11": "memory-order hazard (relaxed publish/free guard or needless seq_cst)",
    "R12": "cross-thread class not expressible in MC-wrappable types",
}
