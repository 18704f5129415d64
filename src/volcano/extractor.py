"""Tolerant lexical extraction of Solidity function-level fragments.

The scanner never parses Solidity properly: it masks comments and string
literals, then walks word/brace tokens to find `function`, `constructor`,
`modifier` and 0.6+ `fallback()`/`receive()` definitions with bodies.
That keeps it total over the 0.3-0.8 syntax range (and over the broken
sources verified contracts occasionally contain): anything that cannot be
matched to a body is skipped with a warning, never raised.

Masking is length-preserving so every offset on the masked canvas maps
straight back into the original text.
"""

from __future__ import annotations

import bisect
import logging
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .corpus import SourceContract

log = logging.getLogger(__name__)

# Comment and string regions. Alternation order matters: terminated forms
# win over the unterminated fallbacks at the same start position. Solidity
# strings cannot contain a raw newline, so an unterminated string masks to
# the end of its line; an unterminated block comment masks to end of file.
_REGION_RE = re.compile(
    r"(?P<line>//[^\n]*)"
    r"|(?P<block>/\*.*?\*/)"
    r"|(?P<blockopen>/\*.*)"
    r"|(?P<dq>\"(?:[^\"\\\n]|\\.)*\")"
    r"|(?P<dqopen>\"(?:[^\"\\\n]|\\.)*)"
    r"|(?P<sq>'(?:[^'\\\n]|\\.)*')"
    r"|(?P<sqopen>'(?:[^'\\\n]|\\.)*)",
    re.DOTALL,
)

_BLANK_RE = re.compile(r"[^\n]")

# Words that can open a fragment. fallback/receive cover the 0.6+ keyword
# forms; plain calls named "fallback" are rejected later because a call is
# followed by ';' before any '{'.
_DECL_WORDS = ("function", "constructor", "modifier", "fallback", "receive")

_WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_CANVAS_TOKEN_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*|[(){};]")


def _blank(piece: str) -> str:
    return _BLANK_RE.sub(" ", piece)


def _mask(text: str, mask_strings: bool, warn_to: list[str] | None) -> str:
    parts = []
    last = 0
    for m in _REGION_RE.finditer(text):
        parts.append(text[last:m.start()])
        piece = m.group(0)
        kind = m.lastgroup
        if kind in ("line", "block", "blockopen"):
            parts.append(_blank(piece))
            if kind == "blockopen" and warn_to is not None:
                warn_to.append(f"unterminated block comment at offset {m.start()}")
        elif mask_strings:
            if kind in ("dq", "sq"):
                parts.append(piece[0] + _blank(piece[1:-1]) + piece[-1])
            else:
                parts.append(piece[0] + _blank(piece[1:]))
                if warn_to is not None:
                    warn_to.append(f"unterminated string literal at offset {m.start()}")
        else:
            parts.append(piece)
        last = m.end()
    parts.append(text[last:])
    return "".join(parts)


def mask_comments_and_strings(source_text: str) -> str:
    """Blank comment and string interiors, preserving length and newlines."""
    warnings: list[str] = []
    masked = _mask(source_text, mask_strings=True, warn_to=warnings)
    for w in warnings:
        log.warning(w)
    return masked


def strip_comments(source_text: str) -> str:
    """Blank comments only; string literals stay intact."""
    return _mask(source_text, mask_strings=False, warn_to=None)


@dataclass(frozen=True, order=True)
class FragmentRef:
    """Stable identity of a fragment: where it sits in which contract."""

    contract_id: str
    start_line: int
    end_line: int
    name: str

    @property
    def uid(self) -> str:
        return f"{self.contract_id}:{self.name}:{self.start_line}-{self.end_line}"


@dataclass
class FunctionFragment:
    contract_id: str
    name: str
    start_line: int  # 1-based, inclusive
    end_line: int
    exact_text: str = field(repr=False)  # header through closing brace

    @property
    def ref(self) -> FragmentRef:
        return FragmentRef(self.contract_id, self.start_line, self.end_line, self.name)


def _try_extract(tokens, k, n):
    """Try to read one definition starting at token k; return (name, body_open, close) indices."""
    word, _ = tokens[k]
    j = k + 1
    if word == "function":
        if j < n and _WORD_RE.fullmatch(tokens[j][0]):
            name = tokens[j][0]
            j += 1
        else:
            name = "<fallback>"
    elif word == "constructor":
        name = "<constructor>"
    elif word == "modifier":
        if not (j < n and _WORD_RE.fullmatch(tokens[j][0])):
            return None
        name = f"<modifier:{tokens[j][0]}>"
        j += 1
    else:  # fallback / receive keyword form: must open a parameter list
        if not (j < n and tokens[j][0] == "("):
            return None
        name = "<fallback>" if word == "fallback" else "<receive>"

    # Walk the header: parameter list, visibility words, modifier list,
    # returns clause. A ';' at depth 0 is a bodiless declaration; a new
    # declaration keyword or an unbalanced ')' means we misread a type
    # position, so bail out without a fragment.
    depth = 0
    body = None
    while j < n:
        t = tokens[j][0]
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth < 0:
                return None
        elif depth == 0:
            if t == ";":
                return None
            if t == "{":
                body = j
                break
            if t in ("function", "constructor", "modifier"):
                return None
        j += 1
    if body is None:
        return None

    depth = 1
    j = body + 1
    while j < n and depth:
        t = tokens[j][0]
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
        j += 1
    if depth:
        return (name, body, None)
    return (name, body, j - 1)


def extract_functions(contract: "SourceContract") -> list[FunctionFragment]:
    """Extract every function/constructor/modifier definition with a body.

    Fragments appear in source order. Nested definitions (a Yul function in
    an assembly block, say) become their own fragments; the enclosing one
    still spans them lexically. A fragment's ref is its identity: when two
    definitions share one (a nested function with its enclosing function's
    name, on the same lines), the last one is kept, at the first one's place.
    """
    text = contract.source_text
    canvas = mask_comments_and_strings(text)
    tokens = [(m.group(0), m.start()) for m in _CANVAS_TOKEN_RE.finditer(canvas)]
    n = len(tokens)
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def line_of(pos: int) -> int:
        return bisect.bisect_right(line_starts, pos)

    fragments: dict[FragmentRef, FunctionFragment] = {}
    for k in range(n):
        word, pos = tokens[k]
        if word not in _DECL_WORDS:
            continue
        got = _try_extract(tokens, k, n)
        if got is None:
            continue
        name, _body, close = got
        if close is None:
            log.warning(
                "%s: gave up on %r at line %d, braces never close",
                contract.id, name, line_of(pos),
            )
            continue
        close_pos = tokens[close][1]
        fragment = FunctionFragment(
            contract_id=contract.id,
            name=name,
            start_line=line_of(pos),
            end_line=line_of(close_pos),
            exact_text=text[pos:close_pos + 1],
        )
        fragments[fragment.ref] = fragment
    return list(fragments.values())
