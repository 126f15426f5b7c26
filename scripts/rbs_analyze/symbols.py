"""Cross-TU symbol index for the concurrency rules (R6-R8).

Built once over every analyzed file's token stream, the index records, for
each class/struct, the *concurrency classification* of every data member:

  atomic   std::atomic<...> — safe to touch from any thread
  sync     a synchronization primitive itself (mutex / condition_variable /
           thread / core::AnnotatedMutex); its presence marks the class as
           cross-thread
  guarded  carries RBS_GUARDED_BY(...) — lock discipline machine-checked by
           -Wthread-safety (see src/core/thread_annotations.hpp)
  const    immutable after construction
  plain    none of the above — exactly the members R6 flags when the class
           is cross-thread

A class is *cross-thread* when it owns at least one `sync` member: a class
that carries a mutex, a condition variable, or worker threads is shared
between threads by construction, so every mutable member needs one of the
sanctioned classifications.

This is a declaration-shaped heuristic, not a C++ front end: function
bodies are discarded, nested classes are indexed as their own entries, and
inheritance is not followed (a derived class is classified by the members
it declares itself).
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from .lexer import Token, find_matching

# Type-token spellings that mark a member as a synchronization primitive.
# The wrapper spellings (core::AnnotatedMutex, check::mc::Mutex/CondVar) are
# the sanctioned ones; the raw std spellings still classify — a class owning
# a bare std::mutex IS cross-thread — but R12 flags them as unwrappable.
SYNC_TYPE_TOKENS = {
    "mutex",
    "shared_mutex",
    "recursive_mutex",
    "condition_variable",
    "condition_variable_any",
    "thread",
    "jthread",
    "AnnotatedMutex",
    "Mutex",
    "CondVar",
}

# Raw std primitive type tokens: when one of these appears std::-qualified
# in a field's declarator, the field cannot be routed through the model
# checker's instrumentation (check/mc/types.hpp) — R12's predicate.
RAW_STD_SYNC_TOKENS = {
    "atomic",
    "mutex",
    "shared_mutex",
    "recursive_mutex",
    "condition_variable",
    "condition_variable_any",
}

# Statements starting with these can never be data-member declarations.
_NON_MEMBER_HEADS = {
    "struct", "class", "enum", "union", "using", "typedef", "friend",
    "template", "static", "constexpr", "static_assert", "operator",
    "public", "private", "protected", "virtual", "explicit", "inline",
}


@dataclasses.dataclass
class FieldInfo:
    name: str
    classification: str  # atomic | sync | guarded | const | plain
    line: int
    # True when the declarator spells a std::-qualified primitive (raw
    # std::atomic / std::mutex / std::condition_variable ...) instead of the
    # MC-wrappable types (check::mc::Atomic/Mutex/CondVar, AnnotatedMutex).
    raw_sync: bool = False


@dataclasses.dataclass
class ClassInfo:
    name: str
    file: str
    line: int
    fields: List[FieldInfo] = dataclasses.field(default_factory=list)

    @property
    def cross_thread(self) -> bool:
        return any(f.classification == "sync" for f in self.fields)


@dataclasses.dataclass
class SymbolIndex:
    """Every class seen across the analyzed file set, keyed nothing — R6
    iterates per file, so entries keep their defining file."""

    classes: List[ClassInfo] = dataclasses.field(default_factory=list)

    def field_classification(self, name: str) -> Optional[str]:
        """The classification of `name` wherever it is declared as a field.

        If the same name is declared in several classes with different
        classifications, the *least* safe one wins (plain < const < guarded
        < sync < atomic), so a sanctioned homonym elsewhere can never hide a
        hazard.
        """
        order = ["plain", "const", "guarded", "sync", "atomic"]
        best: Optional[str] = None
        for cls in self.classes:
            for f in cls.fields:
                if f.name == name:
                    if best is None or order.index(f.classification) < order.index(best):
                        best = f.classification
        return best


def build_symbol_index(files: Dict[str, List[Token]]) -> SymbolIndex:
    index = SymbolIndex()
    for rel, tokens in files.items():
        index.classes.extend(_classes_in_file(rel, tokens))
    return index


def _classes_in_file(rel: str, tokens: List[Token]) -> List[ClassInfo]:
    out: List[ClassInfo] = []
    for i, t in enumerate(tokens):
        if t.kind != "ident" or t.text not in ("struct", "class"):
            continue
        if i > 0 and tokens[i - 1].text == "enum":
            continue  # enum class
        info = _parse_class(rel, tokens, i)
        if info is not None:
            out.append(info)
    return out


def _parse_class(rel: str, tokens: List[Token], kw: int) -> Optional[ClassInfo]:
    """Parses the class introduced at tokens[kw]; None for forward decls."""
    name = ""
    j = kw + 1
    while j < len(tokens):
        t = tokens[j]
        if t.text in ("{", ":", ";"):
            break
        if t.text in ("(", "["):  # alignas(...), attribute lists
            close = find_matching(tokens, j, t.text, ")" if t.text == "(" else "]")
            if close == -1:
                return None
            j = close + 1
            continue
        if t.kind == "ident" and tokens[j - 1].text != "::":
            # Skip attribute-macro idents that take parens (RBS_CAPABILITY,
            # alignas): an ident directly followed by "(" is not the name.
            if j + 1 < len(tokens) and tokens[j + 1].text == "(":
                j += 1
                continue
            name = t.text
        j += 1
    if j >= len(tokens) or tokens[j].text == ";":
        return None  # forward declaration
    # Skip a base-clause to the class body.
    while j < len(tokens) and tokens[j].text != "{":
        if tokens[j].text == ";":
            return None
        j += 1
    if j >= len(tokens):
        return None
    close = find_matching(tokens, j, "{", "}")
    if close == -1:
        return None
    info = ClassInfo(name=name or "<anonymous>", file=rel, line=tokens[kw].line)
    _parse_members(tokens[j + 1 : close], info)
    return info


def _parse_members(body: List[Token], info: ClassInfo) -> None:
    stmt: List[Token] = []
    i = 0
    while i < len(body):
        t = body[i]
        if t.text in ("public", "private", "protected") and i + 1 < len(body) \
                and body[i + 1].text == ":":
            stmt = []
            i += 2
            continue
        if t.text == "{":
            close = find_matching(body, i, "{", "}")
            if close == -1:
                return
            nxt = close + 1 < len(body) and body[close + 1].text == ";"
            if nxt and not _stmt_is_nested_type(stmt):
                # Brace initializer: `std::atomic<bool> flag{false};` — keep
                # the statement, drop the initializer tokens.
                i = close + 1
                continue
            # Function body or nested class (indexed by its own scan).
            stmt = []
            i = close + 1 + (1 if nxt else 0)
            continue
        if t.text == ";":
            field = _classify_member(stmt)
            if field is not None:
                info.fields.append(field)
            stmt = []
            i += 1
            continue
        stmt.append(t)
        i += 1


def _stmt_is_nested_type(stmt: List[Token]) -> bool:
    return any(t.text in ("struct", "class", "enum", "union") for t in stmt)


def _classify_member(stmt: List[Token]) -> Optional[FieldInfo]:
    if not stmt:
        return None
    head = stmt[0].text
    if head in _NON_MEMBER_HEADS or head == "~":
        return None
    texts = [t.text for t in stmt]
    if "operator" in texts or "using" in texts or "static" in texts:
        return None

    # Cut a trailing `= initializer`; an `=` preceding that position at
    # depth 0 also ends the declarator (defaulted members were filtered by
    # the "static"/head checks above; `= default` never reaches here with a
    # field-shaped declarator anyway).
    decl = stmt
    depth = 0
    for k, t in enumerate(stmt):
        if t.text in ("(", "[", "<", "{"):
            depth += 1
        elif t.text in (")", "]", ">", "}"):
            depth -= 1
        elif t.text == ">>":
            depth -= 2
        elif t.text == "=" and depth <= 0:
            decl = stmt[:k]
            break
    if not decl:
        return None

    # The declared name: the last identifier, skipping trailing array
    # extents and the annotation-macro call `RBS_GUARDED_BY ( m )`.
    k = len(decl) - 1
    while k >= 0:
        t = decl[k]
        if t.text in (")", "]"):
            opener = "(" if t.text == ")" else "["
            depth = 0
            while k >= 0:
                if decl[k].text == t.text:
                    depth += 1
                elif decl[k].text == opener:
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            k -= 1
            continue
        if t.kind == "ident" and t.text not in ("RBS_GUARDED_BY", "RBS_PT_GUARDED_BY",
                                                "mutable", "const"):
            break
        k -= 1
    if k < 0 or decl[k].kind != "ident":
        return None
    name_tok = decl[k]
    # An identifier directly followed by "(" in the declarator is a function
    # (or constructor) declaration, not a field.
    if k + 1 < len(decl) and decl[k + 1].text == "(":
        return None
    # Template-argument idents are never the declared name: `vector<Foo>`
    # with no declarator ident after it is a base-specifier fragment etc.
    if k + 1 < len(decl) and decl[k + 1].text in ("<", "::"):
        return None

    classification = _classification(texts, name_tok.text)
    raw_sync = any(
        t.text in RAW_STD_SYNC_TOKENS
        and k >= 2
        and decl[k - 1].text == "::"
        and decl[k - 2].text == "std"
        for k, t in enumerate(decl)
    )
    return FieldInfo(name=name_tok.text, classification=classification,
                     line=name_tok.line, raw_sync=raw_sync)


def _classification(texts: List[str], name: str) -> str:
    if "RBS_GUARDED_BY" in texts or "RBS_PT_GUARDED_BY" in texts:
        return "guarded"
    # Drop one occurrence of the declared name from the right, so a field
    # named after its own type (`std::mutex mutex;`) keeps the type token.
    type_texts = list(texts)
    for k in range(len(type_texts) - 1, -1, -1):
        if type_texts[k] == name:
            del type_texts[k]
            break
    if "atomic" in type_texts or "Atomic" in type_texts:
        return "atomic"
    if any(t in SYNC_TYPE_TOKENS for t in type_texts):
        return "sync"
    if texts and texts[0] in ("const", "constexpr"):
        return "const"
    if "const" in type_texts and "*" not in type_texts and "&" not in type_texts:
        return "const"
    return "plain"
