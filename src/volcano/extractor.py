"""Tolerant lexical extraction of Solidity function-level fragments.

The scanner never parses Solidity properly. It masks comments and string
literals, jumping with str.find from one `/`, `"` or `'` to the next, so
masking costs per comment or string region, not per character. It
matches every `{` to its `}` in one stack pass over the masked canvas.

It then reads each declaration keyword token (`function`, `constructor`,
`modifier` and the 0.6+ `fallback()`/`receive()`) once. Before 0.6,
`fallback` and `receive` are ordinary names (`function receive(uint x)`, a
modifier called in a header), so they open a declaration only where a
contract member can start: the last word or (){}; token before them is
';', '{' or '}', or there is none. One re.finditer per word matches every
token of that word and, in C, reads its name and whether its header is
flat: parenthesis groups that do not nest, up to the header's first `{`
or `;` within _SHORT_HEADER characters. A flat header that ends at `;`
(an interface member, an abstract function, a function-typed variable)
opens no definition; one whose `{` comes before the next keyword token
opens one with that body. Only the other headers (a nested parameter
list such as `onlyRole(keccak256(x))`, a keyword inside the header, a
longer header) are walked: the walk reads just the header's
parentheses, braces, semicolons and nested declaration keywords up to
the body's `{`, stepping from each `(` past its `)` and stopping where
an earlier walk read on. A body's `}` is a lookup. The cost follows the
tokens and the walked headers' brackets, even where a parameter list
never closes or many declarations share one header. That keeps it total
over the 0.3-0.8 syntax range (and over the broken sources verified
contracts occasionally contain): anything that cannot be matched to a
body is skipped with a warning, never raised.

Masking is length-preserving so every offset on the masked canvas maps
straight back into the original text.
"""

from __future__ import annotations

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

# A keyword counts only as a whole token: no word character follows it,
# and no letter, _ or $ starts a word before it (leading digits start no
# word, so "9function" holds a `function` token while "xfunction" and
# "0xfunction" do not).
_DIGITS = frozenset(string.digits)
_WORD_STARTS = frozenset(string.ascii_letters + "_$")
_TOKEN_CHARS = _WORD_STARTS | frozenset("(){};")

# What a header walk reacts to: parentheses, braces, ';' and the keywords
# that would open another declaration.
_HEADER_RE = re.compile(r"[(){};]|(?:function|constructor|modifier)(?![A-Za-z0-9_$])")
_SHORT_HEADER = 400

# One match per keyword token. Each pattern starts with its word as a
# literal, so the regex engine jumps straight to its occurrences (a
# leading lookbehind would try every offset); the lookbehind after the
# word keeps an occurrence that no word character precedes or, in each
# word's second pattern, one that a digit precedes. All that follows the
# word is a lookahead, so a match is the word alone and never hides a
# later token. Group 1 is the name, where the word takes one: the next
# word token, if no (){}; comes first. Group 2 is where the header
# starts; it is left unset where the word opens no declaration (a
# modifier with no name, a fallback or receive that no '(' follows).
# Groups 3 and 4 mark the header's first '{' or ';' where the header up
# to it is flat: parenthesis groups with nothing of (){}; inside and no
# '}' outside, with that '{' or ';' within _SHORT_HEADER characters, so
# no attempt reads further on hostile text. The patterns stay strings:
# re compiles and caches each on first use, so a command whose contracts
# hold no `receive` never compiles its pattern.
_NAME = r"[^A-Za-z_$(){};]*([A-Za-z_$][A-Za-z0-9_$]*)"
_FLAT = r"(?:(?=[^{;]{0,%d}[{;])[^(){};]*(?:\([^(){};]*\)[^(){};]*)*(?:()\{|();))?" % (_SHORT_HEADER - 1)


def _token_res(word: str, name: str) -> tuple[str, str, str]:
    rest = f"(?![A-Za-z0-9_$])(?:(?={name}(){_FLAT})|)"
    return word, f"{word}(?<![A-Za-z0-9_$]{word}){rest}", f"{word}(?<=[0-9]{word}){rest}"


# (word, its pattern, its pattern after a digit). fallback/receive cover
# the 0.6+ keyword forms; a plain call named "fallback" is no definition,
# as a ';' ends its header before any '{'.
_TOKENS = (
    _token_res("function", f"(?:{_NAME})?"),
    _token_res("constructor", "()"),
    _token_res("modifier", _NAME),
    _token_res("fallback", r"()(?=[^A-Za-z_$(){};]*\()"),
    _token_res("receive", r"()(?=[^A-Za-z_$(){};]*\()"),
)


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


def _opens_member(canvas: str, pos: int) -> bool:
    """Whether a contract member can start at pos: the last word or (){};
    token before it is ';', '{' or '}', or there is none. Digits start no
    word, so the last of _TOKEN_CHARS before pos tells that token's kind."""
    i = pos - 1
    while i >= 0 and canvas[i] not in _TOKEN_CHARS:
        i -= 1
    return i < 0 or canvas[i] in ";{}"


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


def _body_open(canvas: str, pos: int, close_of: dict[int, int], walked: dict[int, int | None]) -> int | None:
    """Offset of the body's '{' of the header read from pos, or None.

    The header holds a parameter list, visibility words, a modifier list
    and a returns clause. A ';' outside parentheses is a bodiless
    declaration; a new declaration keyword or an unbalanced ')' means we
    misread a type position, so there is no fragment. The walk jumps from
    each '(' past its ')' in close_of; one that never closes ends it.
    Its only state is the offset it reads on from, so walked maps every
    offset an earlier walk on the canvas read on from to that walk's
    answer, and a walk that reaches one stops there: `receive(x)`
    repeated before one ';' is read once, not once per `receive`.
    """
    i, steps, body = pos, [], None
    while i not in walked and (m := _HEADER_RE.search(canvas, i)):
        steps.append(i)
        t, i = m.group(), m.end()
        if t == "(" and m.start() in close_of:
            i = close_of[m.start()] + 1
        elif t == "{":
            body = m.start()
            break
        elif t in ("(", ")", ";") or (t != "}" and _starts_token(canvas, m.start())):
            break
    else:
        body = walked.get(i)
    walked.update(dict.fromkeys(steps, body))
    return body


def _name(m: re.Match) -> str:
    """The fragment name of a keyword token's match, whose text is its word."""
    word = m[0]
    if word == "function":
        return m[1] or "<fallback>"
    if word == "modifier":
        return f"<modifier:{m[1]}>"
    return f"<{word}>"


def _definitions(canvas: str) -> list[tuple[int, str, int]]:
    """(keyword offset, name, body '{' offset) of every definition, in
    offset order.

    Each keyword token ends one of three ways. A flat header that ends at
    its ';' (an interface member, an abstract function, a function-typed
    variable, a call) is no definition: the walk would stop at that ';'
    or sooner. A flat header whose '{' comes before the next keyword token
    is a definition: nothing the walk stops at stands between. Any other
    token that opens a declaration is walked from where its header starts.
    """
    tokens: list[re.Match] = []
    runs = 0  # each finditer adds one run of tokens in offset order
    for word, pattern, after_digit in _TOKENS:
        occurrences = canvas.count(word)
        if not occurrences:
            continue
        found = list(re.finditer(pattern, canvas))
        runs += 1
        # Only where some occurrence is no strict token can a digit precede one.
        if len(found) < occurrences:
            found += [m for m in re.finditer(after_digit, canvas) if _starts_token(canvas, m.start())]
            runs += 1
        if word in ("fallback", "receive"):
            # A dropped token ends no flat header: a walk reads past these words.
            found = [m for m in found if _opens_member(canvas, m.start())]
        tokens += found
    if runs > 1:
        tokens.sort(key=re.Match.start)
    # From the last token back, so each knows where the next one starts.
    walked = None  # with close_of, built for the first header the regex cannot read
    definitions = []
    nxt = len(canvas)
    for m in reversed(tokens):
        pos, brace = m.start(), m.start(3)
        if 0 <= brace < nxt:
            definitions.append((pos, _name(m), brace))
        elif m.start(4) < 0 and (header := m.start(2)) >= 0:
            if walked is None:
                close_of, walked = _pairs(canvas, "(", ")"), {}
            body = _body_open(canvas, header, close_of, walked)
            if body is not None:
                definitions.append((pos, _name(m), body))
        nxt = pos
    definitions.reverse()
    return definitions


def extract_functions(contract: "SourceContract") -> list[FunctionFragment]:
    """Extract every function, constructor, modifier, fallback and receive
    definition with a body.

    Fragments appear in source order. Nested definitions (a Yul function in
    an assembly block, say) become their own fragments; the enclosing one
    still spans them lexically. A fragment's ref is its identity: when two
    definitions share one (a nested function with its enclosing function's
    name, on the same lines), the last one is kept, at the first one's place.
    """
    text = contract.source_text
    canvas = mask_comments_and_strings(text)
    close_of = _pairs(canvas, "{", "}")
    # Keyed by (start_line, end_line, name): the ref within one contract.
    fragments: dict[tuple[int, int, str], FunctionFragment] = {}
    line, counted = 1, 0  # the line of offset counted; definitions come in order
    for pos, name, body in _definitions(canvas):
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
        # Positional: keyword arguments make the dataclass __init__ a third slower.
        fragments[line, end_line, name] = FunctionFragment(contract.id, name, line, end_line, text[pos:close + 1])
    return list(fragments.values())
