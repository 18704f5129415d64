"""Layout and identifier normalization of extracted fragments.

pretty_print turns a fragment into a canonical line sequence: comments
dropped, whitespace collapsed to single spaces, at most one statement per
line, each brace alone on its line. Statements split on `;` only at
parenthesis depth zero, so a `for (a; b; c)` header stays on one line.
Member access renders unspaced (`msg.sender.call.value ( x )`), everything
else space-separated.

rename_blind / rename_consistent implement the Type-2 abstractions on top:
blind maps every renamable identifier to `X`; consistent maps the i-th
distinct renamable identifier, in order of first occurrence, to `X<i>`,
skipping the one placeholder that would equal the declared name.
Language keywords, the builtin globals and members below, elementary type
names, literals, and the fragment's own declared name are never renamed.

Normalization is one token pass. pretty_print tokenizes the
comment-stripped text once and keeps each printed line's tokens on the
fragment it returns, and renaming maps those tokens instead of reading
the printed lines again. So a literal stays whole even where its printed
line would read differently: `1 . 0x1f` prints as `1.0x1f` and keeps the
literal `0x1f`, and a string left open before a newline ends at that
newline, so the identifiers after it on the printed line are renamed. A
fragment that carries no tokens, such as a derived exemplar, is tokenized
line by line through the same renamer.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyFragment, ModeError
from .extractor import FragmentRef, FunctionFragment, extract_functions, strip_comments

# Keyword list spanning Solidity 0.3 through 0.8 plus the unit suffixes;
# matching is case-sensitive throughout.
SOLIDITY_KEYWORDS = frozenset("""
pragma solidity import as from is using contract library interface abstract
struct enum event error function modifier constructor fallback receive
public private internal external pure view payable constant immutable
virtual override anonymous indexed returns return if else for while do
break continue throw emit try catch new delete assembly unchecked let var
memory storage calldata type true false wei gwei szabo finney ether
seconds minutes hours days weeks years
""".split())

BUILTIN_GLOBALS = frozenset(["msg", "block", "tx", "this", "now"])

BUILTIN_MEMBERS = frozenset([
    "sender", "value", "data", "call", "delegatecall", "send", "transfer",
    "require", "assert", "revert", "suicide", "selfdestruct", "length", "push",
])

_ELEMENTARY_RE = re.compile(r"address|bool|string|byte|bytes\d{0,2}|u?int\d{0,3}|u?fixed(?:\d+x\d+)?|mapping")

_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")

# One token per: string literal (terminated or not), number, identifier,
# multi-character operator, any other non-space character. The leading
# lookahead turns a whitespace character away in one step instead of
# failing every alternative at it.
_TOKEN_RE = re.compile(
    r"(?=\S)(?:"
    r"\"(?:[^\"\\\n]|\\.)*\"?"
    r"|'(?:[^'\\\n]|\\.)*'?"
    r"|0[xX][0-9a-fA-F_]+"
    r"|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_$][A-Za-z0-9_$]*"
    r"|>>>=|>>>|>>=|<<=|>>|<<|\*\*|\+\+|--|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|=>|->"
    r"|\S)",
    re.DOTALL,
)


class RenamingMode(enum.Enum):
    NONE = "none"
    BLIND = "blind"
    CONSISTENT = "consistent"


@dataclass(frozen=True)
class NormalizedFragment:
    origin: FragmentRef
    mode: RenamingMode
    lines: tuple[str, ...]  # interned, so equal lines are usually one object

    # Not a field, so equality, hashing and repr ignore it: pretty_print
    # sets it to the tokens each line was printed from, which renaming
    # maps. None here means every line is tokenized again from its text.
    line_tokens = None

    @property
    def line_digests(self) -> tuple[str, ...]:
        # Old name of lines, still read by perfbench/layers.py.
        return self.lines


def tokenize(code: str) -> list[str]:
    return _TOKEN_RE.findall(code)


def _render(tokens: list[str]) -> str:
    """Join tokens with single spaces; '.' binds tight to both neighbours."""
    text = " ".join(tokens)
    if '"' not in text and "'" not in text:
        # Only a string literal holds a space or a newline, or starts or
        # ends with '.', so here a space beside a '.' borders a '.' token.
        return text.replace(" .", ".").replace(". ", ".")
    parts: list[str] = []
    attach = False
    for t in tokens:
        if t == ".":
            if parts:
                parts[-1] += "."
            else:
                parts.append(".")
            attach = True
        elif attach:
            parts[-1] += t
            attach = False
        else:
            parts.append(t)
    return " ".join(parts).replace("\n", " ")


_LAYOUT = frozenset(["(", ")", ";", "{", "}"])


def _split_lines(tokens: list[str]) -> list[list[str]]:
    """The tokens of each printed line, in order."""
    lines: list[list[str]] = []
    start = 0
    depth = 0
    # Visit only the layout tokens; the rest stay on their line.
    for i in itertools.compress(itertools.count(), map(_LAYOUT.__contains__, tokens)):
        t = tokens[i]
        if t == "(":
            depth += 1
        elif t == ")":
            depth = max(0, depth - 1)
        elif t == ";":
            if depth == 0:
                lines.append(tokens[start:i + 1])
                start = i + 1
        else:
            if start < i:
                lines.append(tokens[start:i])
            lines.append([t])
            start = i + 1
    if start < len(tokens):
        lines.append(tokens[start:])
    return lines


def pretty_print(fragment: FunctionFragment) -> NormalizedFragment:
    """Normalize layout only; renaming mode stays NONE.

    The result carries each line's tokens as line_tokens, for in_mode.
    """
    code = strip_comments(fragment.exact_text)
    token_lines = _split_lines(tokenize(code))
    if not token_lines:
        raise EmptyFragment(fragment.ref.uid)
    lines = tuple([sys.intern(_render(tokens)) for tokens in token_lines])
    nf = NormalizedFragment(origin=fragment.ref, mode=RenamingMode.NONE, lines=lines)
    object.__setattr__(nf, "line_tokens", tuple(token_lines))
    return nf


def _declared_name(ref: FragmentRef) -> str | None:
    name = ref.name
    if name.startswith("<modifier:"):
        return name[len("<modifier:"):-1]
    if name.startswith("<"):
        return None
    return name


_KEPT = SOLIDITY_KEYWORDS | BUILTIN_GLOBALS | BUILTIN_MEMBERS


@functools.lru_cache(maxsize=1 << 16)
def _renamable(token: str) -> bool:
    """Whether renaming may change an identifier token, the fragment's declared name aside."""
    return bool(_IDENT_RE.fullmatch(token)) and token not in _KEPT and not _ELEMENTARY_RE.fullmatch(token)


def _rename(nf: NormalizedFragment, mode: RenamingMode) -> NormalizedFragment:
    if nf.mode is not RenamingMode.NONE:
        raise ModeError(f"{nf.origin.uid} is already in mode {nf.mode.value}")
    kept = nf.line_tokens is not None
    token_lines = nf.line_tokens if kept else [tokenize(line) for line in nf.lines]
    # Each distinct token is decided once, in order of first occurrence,
    # the order consistent mode numbers its placeholders in. A token that
    # cannot start an identifier is passed over before the cached check.
    declared = _declared_name(nf.origin)
    distinct = dict.fromkeys(itertools.chain.from_iterable(token_lines))
    names = [t for t in filter(_renamable, filter(_IDENT_RE.match, distinct)) if t != declared]
    if mode is RenamingMode.CONSISTENT:
        # A fragment named X<i> keeps its name to itself.
        placeholders = (p for p in map("X{}".format, itertools.count(1)) if p != declared)
        mapping = dict(zip(names, placeholders))
    else:
        mapping = dict.fromkeys(names, "X")
    new_lines = []
    for line, tokens in zip(nf.lines, token_lines):
        out = list(map(mapping.get, tokens, tokens))
        # A printed line none of whose tokens is renamed stays as printed.
        new_lines.append(line if kept and out == tokens else sys.intern(_render(out)))
    return NormalizedFragment(origin=nf.origin, mode=mode, lines=tuple(new_lines))


def rename_blind(nf: NormalizedFragment) -> NormalizedFragment:
    """Type-2 blind abstraction: every renamable identifier becomes X."""
    return _rename(nf, RenamingMode.BLIND)


def rename_consistent(nf: NormalizedFragment) -> NormalizedFragment:
    """Consistent abstraction: i-th distinct renamable identifier becomes X<i>."""
    return _rename(nf, RenamingMode.CONSISTENT)


def in_mode(nf: NormalizedFragment, mode: RenamingMode) -> NormalizedFragment:
    """Return nf converted from mode NONE into the requested mode."""
    if mode is RenamingMode.NONE and nf.mode is RenamingMode.NONE:
        return nf
    return _rename(nf, mode)


class NormalizationMemo:
    """The lines of each distinct fragment in every mode a run reads.

    Pretty-printing reads only a fragment's exact text, and renaming only
    the printed tokens, the name and the mode, so fragments that agree on
    text and name normalize alike up to their origin. table maps (exact
    text, name) to the fragment's lines in each of modes, in that order:
    a text is pretty-printed once and renamed once per mode other than
    NONE, and the printed tokens are dropped when its entry is filled.
    records is the one stage through which a command extracts and
    normalizes a contract.
    """

    def __init__(self, modes: Iterable[RenamingMode]):
        self.modes = tuple(dict.fromkeys(modes))
        self.table: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}

    def lines(self, fragment: FunctionFragment) -> tuple[tuple[str, ...], ...]:
        """in_mode(pretty_print(fragment), mode).lines for each of modes."""
        key = (fragment.exact_text, fragment.name)
        lines = self.table.get(key)
        if lines is None:
            printed = pretty_print(fragment)
            lines = self.table[key] = tuple([
                printed.lines if mode is RenamingMode.NONE else in_mode(printed, mode).lines
                for mode in self.modes
            ])
        return lines

    def records(self, contract) -> list[tuple]:
        """(name, start_line, end_line, *lines in each of modes) per fragment of
        a contract, in source order; the contract is extracted once."""
        return [(f.name, f.start_line, f.end_line, *self.lines(f)) for f in extract_functions(contract)]
