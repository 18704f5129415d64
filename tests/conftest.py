"""Shared helpers: corpus builders and the two reference LCS routines."""
from __future__ import annotations

from volcano.corpus import Corpus, SourceContract
from volcano.extractor import FunctionFragment, extract_functions
from volcano.normalize import RenamingMode, in_mode, pretty_print


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


def wrap(body: str, pragma: str | None = "pragma solidity ^0.4.10;") -> str:
    head = f"{pragma}\n" if pragma else ""
    return f"{head}contract C {{\n{body}\n}}\n"


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
