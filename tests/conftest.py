"""Shared helpers: corpus builders, the reference extractor, the reference
renamer and the two reference LCS routines."""
from __future__ import annotations

import bisect
import logging
import re
import sys

from hypothesis import settings
from hypothesis import strategies as st

from volcano.corpus import Corpus, SourceContract
from volcano.extractor import FragmentRef, FunctionFragment, extract_functions
from volcano import normalize
from volcano.errors import ModeError
from volcano.normalize import NormalizedFragment, RenamingMode, in_mode, pretty_print, tokenize


# `pytest --hypothesis-profile=ci` runs every property that sets no
# example count of its own on more examples than the default suite
# affords; the default profile stays as it is.
settings.register_profile("ci", max_examples=1000, deadline=None)


# Hostile fragment text: unterminated and escaped literals, backslash-
# newlines, dots between numbers, hex literals and identifiers, comments
# and placeholder names. Half the atoms come from the second list, so
# that runs of quotes, newlines, dots and digits meet often.
ATOMS = st.one_of(
    st.sampled_from(["a", "X1", "x1f", "msg", "1", "\u0663", " ", ";", "{", "//", "/*"]),
    st.sampled_from(['"', "'", "\\", "\n", ".", "1 .", "0x1f"]),
)


def make_contract(cid: str, text: str) -> SourceContract:
    return SourceContract(cid, text)


def make_corpus(label: str, sources: dict[str, str]) -> Corpus:
    return Corpus(label=label, contracts=[make_contract(cid, text) for cid, text in sources.items()])


def single_fragment(text: str, cid: str = "c") -> FunctionFragment:
    frags = extract_functions(make_contract(cid, text))
    assert len(frags) == 1, f"expected one fragment, got {[f.name for f in frags]}"
    return frags[0]


def norm(text: str, mode: RenamingMode = RenamingMode.NONE, cid: str = "c"):
    return in_mode(pretty_print(single_fragment(text, cid=cid)), mode)


def render_reference(tokens: list[str]) -> str:
    """A line's text by the rule normalize._render implements: tokens
    joined by one space, with no space on either side of a "." token, and
    a newline inside a token read as a space."""
    text = ""
    for k, t in enumerate(tokens):
        if k and t != "." and tokens[k - 1] != ".":
            text += " "
        text += t
    return text.replace("\n", " ")


def _renamable_reference(token: str, declared: str | None) -> bool:
    if not normalize._IDENT_RE.fullmatch(token) or token == declared:
        return False
    if token in normalize.SOLIDITY_KEYWORDS or token in normalize.BUILTIN_GLOBALS:
        return False
    return token not in normalize.BUILTIN_MEMBERS and not normalize._ELEMENTARY_RE.fullmatch(token)


def _rename_reference(nf: NormalizedFragment, token_lines, mode: RenamingMode) -> NormalizedFragment:
    """The lines of nf renamed from one token list per line, token by
    token, with no decision cached and every line rendered again."""
    if nf.mode is not RenamingMode.NONE:
        raise ModeError(f"{nf.origin.uid} is already in mode {nf.mode.value}")
    if mode is RenamingMode.NONE:
        return nf
    declared = normalize._declared_name(nf.origin)
    consistent = mode is RenamingMode.CONSISTENT
    mapping: dict[str, str] = {}
    placeholders = 0
    new_lines = []
    for tokens in token_lines:
        out = []
        for t in tokens:
            if _renamable_reference(t, declared):
                if consistent:
                    if t not in mapping:
                        placeholders += 1
                        if f"X{placeholders}" == declared:
                            placeholders += 1
                        mapping[t] = f"X{placeholders}"
                    out.append(mapping[t])
                else:
                    out.append("X")
            else:
                out.append(t)
        new_lines.append(sys.intern(render_reference(out)))
    return NormalizedFragment(origin=nf.origin, mode=mode, lines=tuple(new_lines))


def normalize_reference(nf: NormalizedFragment, mode: RenamingMode) -> NormalizedFragment:
    """in_mode of a fragment that carries no tokens: every line is
    tokenized again from its text, token by token."""
    return _rename_reference(nf, [tokenize(line) for line in nf.lines], mode)


def printed_reference(nf: NormalizedFragment, mode: RenamingMode) -> NormalizedFragment:
    """in_mode of a pretty_print result: each printed line is the
    rendering of the tokens it was printed from, and those tokens, not the
    line's text, are renamed."""
    assert len(nf.line_tokens) == len(nf.lines)
    for line, tokens in zip(nf.lines, nf.line_tokens):
        assert line == render_reference(tokens)
    return _rename_reference(nf, nf.line_tokens, mode)


def wrap(body: str, pragma: str | None = "pragma solidity ^0.4.10;") -> str:
    head = f"{pragma}\n" if pragma else ""
    return f"{head}contract C {{\n{body}\n}}\n"


# The masker as one regex scan: finditer tries the region pattern at every
# offset, where the masker under test jumps between / " and ' with str.find.
_REGION_REFERENCE_RE = re.compile(
    r"(?P<line>//[^\n]*)"
    r"|(?P<block>/\*.*?\*/)"
    r"|(?P<blockopen>/\*.*)"
    r"|(?P<dq>\"(?:[^\"\\\n]|\\.)*\")"
    r"|(?P<dqopen>\"(?:[^\"\\\n]|\\.)*)"
    r"|(?P<sq>'(?:[^'\\\n]|\\.)*')"
    r"|(?P<sqopen>'(?:[^'\\\n]|\\.)*)",
    re.DOTALL,
)


def mask_reference(text: str, mask_strings: bool) -> tuple[str, list[str]]:
    """(masked text, warnings): comments blanked, and string interiors if mask_strings."""

    def blank(piece: str) -> str:
        return re.sub(r"[^\n]", " ", piece)

    parts = []
    warnings: list[str] = []
    last = 0
    for m in _REGION_REFERENCE_RE.finditer(text):
        parts.append(text[last:m.start()])
        piece = m.group(0)
        kind = m.lastgroup
        if kind in ("line", "block", "blockopen"):
            parts.append(blank(piece))
            if kind == "blockopen":
                warnings.append(f"unterminated block comment at offset {m.start()}")
        elif mask_strings:
            if kind in ("dq", "sq"):
                parts.append(piece[0] + blank(piece[1:-1]) + piece[-1])
            else:
                parts.append(piece[0] + blank(piece[1:]))
                warnings.append(f"unterminated string literal at offset {m.start()}")
        else:
            parts.append(piece)
        last = m.end()
    parts.append(text[last:])
    return "".join(parts), warnings


_DECL_WORDS = ("function", "constructor", "modifier", "fallback", "receive")
_WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_CANVAS_TOKEN_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*|[(){};]")
_extractor_log = logging.getLogger("volcano.extractor")


def _try_extract_reference(tokens, k, n):
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
    else:  # fallback / receive keyword form: starts a member, opens a parameter list
        if k and tokens[k - 1][0] not in (";", "{", "}"):
            return None
        if not (j < n and tokens[j][0] == "("):
            return None
        name = "<fallback>" if word == "fallback" else "<receive>"

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


def extract_functions_reference(contract: SourceContract) -> list[FunctionFragment]:
    """The extractor as a walk over every word/brace token of the masked text.

    A second route beside the brace-matching extractor under test: it
    tokenizes the whole canvas and reads each declaration token by token.
    It masks with mask_reference and logs to the extractor's logger, so
    both masking and give-up warnings compare.
    """
    text = contract.source_text
    canvas, warnings = mask_reference(text, mask_strings=True)
    for w in warnings:
        _extractor_log.warning(w)
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
        got = _try_extract_reference(tokens, k, n)
        if got is None:
            continue
        name, _body, close = got
        if close is None:
            _extractor_log.warning(
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


def lcs_oracle(a, b) -> int:
    """Longest common subsequence by exhaustive subsequence enumeration.

    Deliberately a different route than the DP under test: every
    subsequence of the shorter sequence is generated from a bitmask and
    greedily checked against the longer one.
    """
    if len(a) > len(b):
        a, b = b, a
    n = len(a)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        sub = [a[i] for i in range(n) if mask >> i & 1]
        it = iter(b)
        if all(x in it for x in sub):
            best = len(sub)
    return best


def lcs_dp(a, b) -> int:
    """Longest common subsequence by the textbook dynamic-programming table.

    A second route beside the bit-parallel kernel under test, cheap enough
    for long sequences: the shared prefix and suffix are trimmed first, then
    one row of the table is kept at a time.
    """
    if a == b:
        return len(a)
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    mid_a = a[lo:hi_a]
    mid_b = b[lo:hi_b]
    trimmed = lo + (len(a) - hi_a)
    if not mid_a or not mid_b:
        return trimmed
    if len(mid_a) < len(mid_b):
        mid_a, mid_b = mid_b, mid_a
    prev = [0] * (len(mid_b) + 1)
    for x in mid_a:
        cur = [0]
        append = cur.append
        best = 0
        for j, y in enumerate(mid_b):
            best = prev[j] + 1 if x == y else max(prev[j + 1], best)
            append(best)
        prev = cur
    return trimmed + prev[-1]


def pair_key_set(pairs):
    return {(p.left.uid, p.right.uid) for p in pairs}


def evolution_cell(report, mode: str, bucket: str, vuln_type: str) -> dict | None:
    """The evolution report's cell for one (mode, bucket, type), or None."""
    for c in report.cells:
        if c["mode"] == mode and c["bucket"] == bucket and c["vuln_type"] == vuln_type:
            return c
    return None


# A small mixed corpus for the golden report test: clones across three
# version buckets and a pragma-less file, near-misses that only consistent
# renaming at 30% catches, benign code, and labels that give both a
# label-pure and a mixed-label class on derivation.
GOLDEN_SOURCES = {
    "kill04.sol": wrap("    function kill(address evil) external {\n        suicide(evil);\n    }"),
    "kill06.sol": wrap(
        "    function kill(address bad) external {\n        selfdestruct(bad);\n    }",
        pragma="pragma solidity ^0.6.2;",
    ),
    "bank04.sol": wrap(
        "    function withdraw(uint amount) {\n"
        "        if (balance >= amount)\n"
        "        msg.sender.call.value(amount)();\n"
        "        balance -= amount;\n"
        "    }\n"
        "    function deposit() payable {\n"
        "        balance += msg.value;\n"
        "        total += msg.value;\n"
        "    }"
    ),
    "bank05.sol": wrap(
        "    function take(uint qty) public {\n"
        "        if (funds >= qty) {\n"
        "            msg.sender.call.value(qty)();\n"
        "        }\n"
        "        funds -= qty;\n"
        "        emit Taken(qty);\n"
        "    }\n"
        "    function put() public payable {\n"
        "        funds += msg.value;\n"
        "        total += msg.value;\n"
        "    }",
        pragma="pragma solidity ^0.5.0;",
    ),
    "payout.sol": wrap(
        "    function sendPayments() public returns (bool) {\n"
        "        for (uint i = 0; i < n; i++) {\n"
        "            addresses.send(msg.sender);\n"
        "        }\n"
        "        return true;\n"
        "    }\n"
        "    function tally(uint a) public {\n"
        "        sum += a;\n"
        "        count += 1;\n"
        "    }"
    ),
    "owner1.sol": wrap("    function initialize() public {\n        new_owner = msg.sender;\n    }"),
    "owner2.sol": wrap(
        "    function setup() public {\n        admin = msg.sender;\n    }",
        pragma="pragma solidity ^0.5.0;",
    ),
    "yul.sol": wrap(
        "    function f() public { assembly { function f(x) -> y { { } { } { } { } { } { } } } }",
        pragma=None,
    ),
}

GOLDEN_LABELS = {
    "kill04.sol": "DOS",
    "kill06.sol": "DOS",
    "bank04.sol": "REENTRANCY",
    "bank05.sol": "REENTRANCY",
    "payout.sol": "DOS",
    "owner1.sol": "WEAK_MODIFIERS",
    "owner2.sol": "CALL_TO_UNKNOWN",
    "yul.sol": "DOS",
}
