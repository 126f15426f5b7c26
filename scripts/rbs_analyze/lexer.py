"""A small C++ lexer: the token stream every rule runs over.

Produces a flat token stream with line numbers, with comments and string
literals stripped (their contents can never trigger a rule), preprocessor
directives skipped, and raw strings handled. This is not a full C++
front end — it is exactly enough structure for the rbs-analyze rules:
identifier/punctuation sequences, balanced-delimiter scanning, and
template-argument slicing.
"""
from __future__ import annotations

import dataclasses
import re
from typing import List

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
NUMBER_RE = re.compile(r"(?:0[xX][0-9a-fA-F']+|\d[\d'.]*(?:[eE][+-]?\d+)?)[uUlLfF]*")
# Multi-character operators first so e.g. "::" never lexes as two ":".
PUNCT_RE = re.compile(
    r"->\*|<<=|>>=|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|."
)


@dataclasses.dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "string" | "punct"
    text: str
    line: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    line = 1
    n = len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r":
            i += 1
            continue
        # Preprocessor directive: skip to end of (continued) line.
        if c == "#" and at_line_start:
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                i += 1
            continue
        at_line_start = False
        # Comments.
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                break
            line += text.count("\n", i, end + 2)
            i = end + 2
            continue
        # Raw strings: R"delim( ... )delim".
        if c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                end = text.find(closer, i + m.end())
                if end == -1:
                    break
                line += text.count("\n", i, end)
                tokens.append(Token("string", '""', line))
                i = end + len(closer)
                continue
        # Ordinary string / char literals.
        if c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    break  # unterminated; bail at line end
                j += 1
            tokens.append(Token("string", quote + quote, line))
            i = j + 1
            continue
        m = IDENT_RE.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(0), line))
            i = m.end()
            continue
        m = NUMBER_RE.match(text, i)
        if m and c.isdigit():
            tokens.append(Token("number", m.group(0), line))
            i = m.end()
            continue
        m = PUNCT_RE.match(text, i)
        tokens.append(Token("punct", m.group(0), line))
        i = m.end()
    return tokens


def match_seq(tokens: List[Token], i: int, *texts: str) -> bool:
    """True if tokens[i:i+len(texts)] spell exactly `texts`."""
    if i + len(texts) > len(tokens):
        return False
    return all(tokens[i + k].text == t for k, t in enumerate(texts))


def find_matching(tokens: List[Token], i: int, open_: str, close: str) -> int:
    """Index of the token closing the delimiter opened at `i`, or -1.

    When scanning angle brackets, parentheses/brackets/braces nested inside
    are skipped wholesale so comparison operators inside them cannot be
    mistaken for template delimiters.
    """
    assert tokens[i].text == open_
    depth = 0
    j = i
    pairs = {"(": ")", "[": "]", "{": "}"}
    while j < len(tokens):
        t = tokens[j].text
        if open_ == "<" and t in pairs:
            inner = find_matching(tokens, j, t, pairs[t])
            if inner == -1:
                return -1
            j = inner + 1
            continue
        if t == open_:
            depth += 1
        elif t == close or (open_ == "<" and close == ">" and t == ">>"):
            depth -= 2 if t == ">>" else 1
            if depth <= 0:
                return j
        elif open_ == "<" and t in (";", "{"):
            return -1  # not a template argument list after all
        j += 1
    return -1
