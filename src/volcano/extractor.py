"""Tolerant lexical extraction of Solidity function-level fragments.

The scanner never parses Solidity properly. It masks comments and string
literals, jumping with str.find from one `/`, `"` or `'` to the next, so
masking costs per comment or string region, not per character. It
matches every `{` to its `}` in one stack pass over the masked canvas,
and finds the `function`, `constructor`, `modifier` and 0.6+
`fallback()`/`receive()` keywords with str.find. From each keyword it
reads only what decides a definition: the name, then the header's
parentheses, braces, semicolons and nested declaration keywords, up to
the body's `{` (in one step where the parentheses never nest, else from
each `(` past its `)`), whose `}` is a lookup. Its cost follows the
declarations and brackets, not the tokens, even where a parameter list
never closes. That keeps it total over the 0.3-0.8 syntax range (and
over the broken sources verified contracts occasionally contain):
anything that cannot be matched to a body is skipped with a warning,
never raised.

Masking is length-preserving so every offset on the masked canvas maps
straight back into the original text.
"""

from __future__ import annotations

import functools
import logging
import re
import string
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .corpus import SourceContract

log = logging.getLogger(__name__)

# Comment and string regions. Alternation order matters: terminated forms
# win over the unterminated fallbacks at the same start position. Solidity
# strings cannot contain a raw newline, so an unterminated string masks to
# the end of its line; an unterminated block comment masks to end of file.
# Every region starts with / " or '; _mask finds those characters with
# str.find and tries the regex only where one stands.
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

# The masked canvas reads as word tokens and the punctuation (){};, as
# _CANVAS_TOKEN_RE matches them left to right. A keyword counts only as a
# whole token: no word character follows it, and no letter, _ or $ starts
# a word before it (leading digits start no word, so "9function" holds a
# `function` token while "xfunction" and "0xfunction" do not).
_CANVAS_TOKEN_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*|[(){};]")
_PUNCTUATION = frozenset("(){};")
_DIGITS = frozenset(string.digits)
_WORD_STARTS = frozenset(string.ascii_letters + "_$")
_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "_$")

# Words that can open a fragment. fallback/receive cover the 0.6+ keyword
# forms; plain calls named "fallback" are rejected later because a call is
# followed by ';' before any '{'. None of them holds another, so their
# occurrences never overlap.
_DECL_WORDS = ("function", "constructor", "modifier", "fallback", "receive")
# What a header walk reacts to: parentheses, braces, ';' and the keywords
# that would open another declaration.
_HEADER_RE = re.compile(r"[(){};]|(?:function|constructor|modifier)(?![A-Za-z0-9_$])")
# A header the walk reads straight to its '{': no ';', no nested declaration
# keyword, and parentheses that never nest and all close. _body_open tries
# it only on a '{' within _SHORT_HEADER characters, so a bodiless
# declaration far from any brace costs no more than the walk.
_FLAT_HEADER_RE = re.compile(r"[^()]*(?:\([^()]*\)[^()]*)*")
_SHORT_HEADER = 400


def _blank(piece: str) -> str:
    return _BLANK_RE.sub(" ", piece)


def _mask(text: str, mask_strings: bool, warn_to: list[str] | None) -> str:
    n = len(text)

    def after(ch: str, pos: int) -> int:
        i = text.find(ch, pos)
        return n if i < 0 else i

    parts = []
    last = 0
    # The next / " and ' at or after the scan position; each is found again
    # only once the scan has passed it, so the text is read a bounded number
    # of times however many regions it holds.
    slash, dq, sq = after("/", 0), after('"', 0), after("'", 0)
    while True:
        pos = min(slash, dq, sq)
        if pos == n:
            break
        m = _REGION_RE.match(text, pos)
        if m is None:  # a '/' that opens no comment
            slash = after("/", pos + 1)
            continue
        parts.append(text[last:pos])
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
        if slash < last:
            slash = after("/", last)
        if dq < last:
            dq = after('"', last)
        if sq < last:
            sq = after("'", last)
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


def _starts_token(canvas: str, pos: int) -> bool:
    """Whether a word token of the canvas starts at pos (a word character is there)."""
    i = pos
    while i and canvas[i - 1] in _DIGITS:
        i -= 1
    return not (i and canvas[i - 1] in _WORD_STARTS)


def _pairs(canvas: str, left: str, right: str) -> dict[int, int]:
    """Offset of each left that closes -> offset of its right; a stray right is skipped."""
    find = canvas.find
    close_of = {}
    open_at = []
    opening = find(left)
    closing = find(right)
    while closing >= 0:
        if 0 <= opening < closing:
            open_at.append(opening)
            opening = find(left, opening + 1)
        else:
            if open_at:
                close_of[open_at.pop()] = closing
            closing = find(right, closing + 1)
    return close_of


def _keywords(canvas: str) -> list[tuple[int, str]]:
    """(offset, word) of every declaration keyword on the canvas that no
    word character follows, in offset order."""
    found = []
    for word in _DECL_WORDS:
        size = len(word)
        pos = canvas.find(word)
        while pos >= 0:
            if canvas[pos + size:pos + size + 1] not in _WORD_CHARS:
                found.append((pos, word))
            pos = canvas.find(word, pos + size)
    found.sort()
    return found


def _body_open(canvas: str, pos: int, paren_pairs) -> int | None:
    """Offset of the body's '{' of the header read from pos, or None.

    The header holds a parameter list, visibility words, a modifier list
    and a returns clause. A ';' outside parentheses is a bodiless
    declaration; a new declaration keyword or an unbalanced ')' means we
    misread a type position, so there is no fragment. The walk jumps from
    each '(' past its ')' in paren_pairs(); one that never closes ends it.
    """
    brace = canvas.find("{", pos, pos + _SHORT_HEADER)
    if brace >= 0:
        head = canvas[pos:brace]
        if (";" not in head and "function" not in head and "constructor" not in head
                and "modifier" not in head and _FLAT_HEADER_RE.fullmatch(head)):
            return brace
    close_of = paren_pairs()
    i = pos
    while m := _HEADER_RE.search(canvas, i):
        t, i = m.group(), m.end()
        if t == "(" and m.start() in close_of:
            i = close_of[m.start()] + 1
        elif t == "{":
            return m.start()
        elif t in ("(", ")", ";") or (t != "}" and _starts_token(canvas, m.start())):
            return None
    return None


def _declaration(canvas: str, word: str, start: int) -> tuple[str, int] | None:
    """(name, offset its header starts at) of the definition keyword word,
    which ends at start, or None."""
    if word == "constructor":
        return "<constructor>", start
    nxt = _CANVAS_TOKEN_RE.search(canvas, start)
    tok = nxt.group() if nxt else None
    is_word = tok is not None and tok not in _PUNCTUATION
    if word == "function":
        return (tok, nxt.end()) if is_word else ("<fallback>", start)
    if word == "modifier":
        return (f"<modifier:{tok}>", nxt.end()) if is_word else None
    # fallback / receive keyword form: must open a parameter list
    return (f"<{word}>", start) if tok == "(" else None


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
    close_of = _pairs(canvas, "{", "}")
    # Built once, for the first header that leaves _body_open's flat path.
    paren_pairs = functools.cache(lambda: _pairs(canvas, "(", ")"))
    # Keyed by (start_line, end_line, name): the ref within one contract.
    fragments: dict[tuple[int, int, str], FunctionFragment] = {}
    line, counted = 1, 0  # the line of offset counted; keywords come in order
    for pos, word in _keywords(canvas):
        if not _starts_token(canvas, pos):
            continue
        declared = _declaration(canvas, word, pos + len(word))
        if declared is None:
            continue
        name, header = declared
        body = _body_open(canvas, header, paren_pairs)
        if body is None:
            continue
        line += text.count("\n", counted, pos)
        counted = pos
        close = close_of.get(body)
        if close is None:
            log.warning(
                "%s: gave up on %r at line %d, braces never close",
                contract.id, name, line,
            )
            continue
        end_line = line + text.count("\n", pos, close)
        fragments[line, end_line, name] = FunctionFragment(
            contract_id=contract.id,
            name=name,
            start_line=line,
            end_line=end_line,
            exact_text=text[pos:close + 1],
        )
    return list(fragments.values())
