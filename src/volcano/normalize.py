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
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass

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
# multi-character operator, any other non-space character.
_TOKEN_RE = re.compile(
    r"\"(?:[^\"\\\n]|\\.)*\"?"
    r"|'(?:[^'\\\n]|\\.)*'?"
    r"|0[xX][0-9a-fA-F_]+"
    r"|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_$][A-Za-z0-9_$]*"
    r"|>>>=|>>>|>>=|<<=|>>|<<|\*\*|\+\+|--|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|=>|->"
    r"|\S",
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

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def line_digests(self) -> tuple[str, ...]:
        # Old name of lines, still read by perfbench/layers.py.
        return self.lines


def tokenize(code: str) -> list[str]:
    return _TOKEN_RE.findall(code)


def _render(tokens: list[str]) -> str:
    """Join tokens with single spaces; '.' binds tight to both neighbours."""
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


def _split_lines(tokens: list[str]) -> list[str]:
    lines: list[str] = []
    cur: list[str] = []
    depth = 0
    for t in tokens:
        if t == "(":
            depth += 1
            cur.append(t)
        elif t == ")":
            depth = max(0, depth - 1)
            cur.append(t)
        elif t == ";" and depth == 0:
            cur.append(t)
            lines.append(_render(cur))
            cur = []
        elif t in ("{", "}"):
            if cur:
                lines.append(_render(cur))
                cur = []
            lines.append(t)
        else:
            cur.append(t)
    if cur:
        lines.append(_render(cur))
    return lines


def pretty_print(fragment: FunctionFragment) -> NormalizedFragment:
    """Normalize layout only; renaming mode stays NONE."""
    code = strip_comments(fragment.exact_text)
    lines = tuple(map(sys.intern, _split_lines(tokenize(code))))
    if not lines:
        raise EmptyFragment(fragment.ref.uid)
    return NormalizedFragment(origin=fragment.ref, mode=RenamingMode.NONE, lines=lines)


def _declared_name(ref: FragmentRef) -> str | None:
    name = ref.name
    if name.startswith("<modifier:"):
        return name[len("<modifier:"):-1]
    if name.startswith("<"):
        return None
    return name


def _renamable(token: str, declared: str | None) -> bool:
    if not _IDENT_RE.fullmatch(token):
        return False
    if token == declared:
        return False
    if token in SOLIDITY_KEYWORDS or token in BUILTIN_GLOBALS or token in BUILTIN_MEMBERS:
        return False
    if _ELEMENTARY_RE.fullmatch(token):
        return False
    return True


def _rename(nf: NormalizedFragment, mode: RenamingMode) -> NormalizedFragment:
    if nf.mode is not RenamingMode.NONE:
        raise ModeError(f"{nf.origin.uid} is already in mode {nf.mode.value}")
    declared = _declared_name(nf.origin)
    consistent = mode is RenamingMode.CONSISTENT
    mapping: dict[str, str] = {}
    placeholders = 0
    new_lines = []
    for line in nf.lines:
        out = []
        for t in tokenize(line):
            if _renamable(t, declared):
                if consistent:
                    if t not in mapping:
                        placeholders += 1
                        if f"X{placeholders}" == declared:
                            # A fragment named X<i> keeps its name to itself.
                            placeholders += 1
                        mapping[t] = f"X{placeholders}"
                    out.append(mapping[t])
                else:
                    out.append("X")
            else:
                out.append(t)
        new_lines.append(sys.intern(_render(out)))
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
    """Normalized lines by content, for the length of one run.

    Pretty-printing reads only a fragment's exact text, and renaming only
    the printed lines, the name and the mode, so fragments that agree on
    those normalize alike up to their origin. table maps (exact text,
    name, mode value) to the lines. A renamed entry is built from the
    mode-NONE entry of its text and name, and extraction reads a
    fragment's name from its text, so a text is pretty-printed once
    whatever modes it is asked in. The key holds the mode's value, a str,
    because hashing the member runs the Python-level Enum.__hash__ on
    every lookup (and .value is a Python-level property too).
    """

    def __init__(self):
        self.table: dict[tuple, tuple[str, ...]] = {}

    def lines(self, fragment: FunctionFragment, mode: RenamingMode) -> tuple[str, ...]:
        """in_mode(pretty_print(fragment), mode).lines, computed once per distinct content."""
        key = (fragment.exact_text, fragment.name, mode._value_)
        lines = self.table.get(key)
        if lines is None:
            if mode is RenamingMode.NONE:
                lines = pretty_print(fragment).lines
            else:
                printed = self.lines(fragment, RenamingMode.NONE)
                lines = in_mode(NormalizedFragment(fragment.ref, RenamingMode.NONE, printed), mode).lines
            self.table[key] = lines
        return lines

    def normalize(self, fragment: FunctionFragment, mode: RenamingMode) -> NormalizedFragment:
        """in_mode(pretty_print(fragment), mode), computed once per distinct content."""
        return NormalizedFragment(origin=fragment.ref, mode=mode, lines=self.lines(fragment, mode))


def normalize_contract(
    contract, mode: RenamingMode, memo: NormalizationMemo | None = None
) -> list[NormalizedFragment]:
    """Every function fragment of a contract, pretty-printed and renamed into mode.

    A run that passes one memo to every call normalizes each distinct
    fragment text once; without one, the memo lives for this call only.
    """
    memo = NormalizationMemo() if memo is None else memo
    return [memo.normalize(fragment, mode) for fragment in extract_functions(contract)]
