"""LCS similarity, clone decisions, pair detection, clustering."""
from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import lcs_oracle, make_contract, norm, pair_key_set, wrap

from volcano.clone_engine import (
    CloneConfig,
    clone_lcs,
    cluster_classes,
    detect_pairs,
    is_clone_pair,
    lcs_length,
    similarity,
)
from volcano.errors import EmptyFragment, ModeMismatch
from volcano.extractor import FragmentRef
from volcano.normalize import NormalizedFragment, RenamingMode


def frag(uid: str, lines, mode=RenamingMode.BLIND, start=1) -> NormalizedFragment:
    lines = tuple(lines)
    return NormalizedFragment(
        origin=FragmentRef(uid, start, start + len(lines) - 1, "f"),
        mode=mode,
        lines=lines,
    )


def cfg(threshold=Fraction(0), mode=RenamingMode.BLIND, min_lines=1, max_lines=None):
    return CloneConfig(mode=mode, max_difference=threshold, min_lines=min_lines, max_lines=max_lines)


def test_lcs_known_values():
    assert lcs_length("ABCBDAB", "BDCABA") == 4
    assert lcs_length("", "anything") == 0
    assert lcs_length("same", "same") == 4
    assert lcs_length("abc", "xyz") == 0
    assert lcs_length(("a", "b", "c"), ("a", "c")) == 2


def test_lcs_matches_oracle_exhaustively_small():
    alphabet = "abc"
    seqs = [
        "".join(p)
        for n in range(0, 5)
        for p in itertools.product(alphabet, repeat=n)
    ]
    for a in seqs:
        for b in seqs:
            assert lcs_length(a, b) == lcs_oracle(a, b)


def test_similarity_frozen_values():
    a = frag("a", ["l1", "l2", "l3"])
    b = frag("b", ["l1", "l3"])
    assert similarity(a, b) == pytest.approx(2 / 3)
    ten = frag("t", [f"l{i}" for i in range(10)])
    seven = frag("s", [f"l{i}" for i in range(7)] + ["q1", "q2", "q3"])
    assert similarity(ten, seven) == pytest.approx(0.7)
    assert similarity(a, a) == 1.0


def test_similarity_on_empty_raises():
    with pytest.raises(EmptyFragment):
        similarity(frag("a", []), frag("b", ["x"]))


def test_threshold_boundary_is_inclusive_exact():
    ten = frag("t", [f"l{i}" for i in range(10)])
    seven = frag("s", [f"l{i}" for i in range(7)] + ["q1", "q2", "q3"])
    assert is_clone_pair(ten, seven, cfg(Fraction(30, 100)))
    assert not is_clone_pair(ten, seven, cfg(Fraction(29, 100)))
    # 0.30 as a float must behave as the exact rational 3/10
    assert is_clone_pair(ten, seven, cfg(0.30))
    twenty = frag("u", [f"m{i}" for i in range(20)])
    thirteen = frag("v", [f"m{i}" for i in range(13)] + [f"q{i}" for i in range(7)])
    assert not is_clone_pair(twenty, thirteen, cfg(Fraction(30, 100)))  # 7/20 > 3/10
    fourteen = frag("w", [f"m{i}" for i in range(14)] + [f"q{i}" for i in range(6)])
    assert is_clone_pair(twenty, fourteen, cfg(Fraction(30, 100)))  # 6/20 = 3/10


def test_threshold_zero_means_exact_equality():
    a = frag("a", ["x", "y", "z"])
    b = frag("b", ["x", "y", "z"])
    c = frag("c", ["x", "y", "w"])
    assert is_clone_pair(a, b, cfg())
    assert not is_clone_pair(a, c, cfg())


def test_self_and_same_origin_pairs_rejected():
    a = frag("a", ["x", "y", "z"])
    twin = frag("a", ["x", "y", "z"])
    assert not is_clone_pair(a, a, cfg())
    assert not is_clone_pair(a, twin, cfg())


def test_mode_mismatch_raises():
    a = frag("a", ["x"], mode=RenamingMode.BLIND)
    b = frag("b", ["x"], mode=RenamingMode.CONSISTENT)
    with pytest.raises(ModeMismatch):
        is_clone_pair(a, b, cfg())
    with pytest.raises(ModeMismatch):
        is_clone_pair(a, frag("c", ["x"]), cfg(mode=RenamingMode.CONSISTENT))


def test_size_window_filters_fragments():
    small = frag("a", ["x", "y"])
    twin = frag("b", ["x", "y"])
    assert not is_clone_pair(small, twin, cfg(min_lines=3))
    big = frag("c", ["x"] * 9)
    big2 = frag("d", ["x"] * 9)
    assert not is_clone_pair(big, big2, cfg(min_lines=1, max_lines=8))
    assert is_clone_pair(big, big2, cfg(min_lines=1, max_lines=9))


def test_config_validation():
    with pytest.raises(ValueError):
        CloneConfig(mode="blind")  # not a RenamingMode
    with pytest.raises(ValueError):
        CloneConfig(mode=RenamingMode.BLIND, max_difference=Fraction(31, 100))
    with pytest.raises(ValueError):
        CloneConfig(mode=RenamingMode.BLIND, max_difference=-0.1)
    with pytest.raises(ValueError):
        CloneConfig(mode=RenamingMode.BLIND, min_lines=0)
    with pytest.raises(ValueError):
        CloneConfig(mode=RenamingMode.BLIND, min_lines=5, max_lines=4)


def test_config_round_trip_and_digest():
    c1 = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=0.3, min_lines=3)
    assert c1.max_difference == Fraction(3, 10)
    c2 = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(3, 10), min_lines=3)
    assert c2.digest() == c1.digest()
    c3 = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(29, 100))
    assert c3.digest() != c1.digest()


def _random_fragments(rng: random.Random, count: int, mode=RenamingMode.BLIND):
    out = []
    pool = [f"s{k}" for k in range(6)]
    for i in range(count):
        n = rng.randint(3, 9)
        out.append(frag(f"c{i}", [rng.choice(pool) for _ in range(n)], mode=mode))
    return out


def test_detect_pairs_matches_naive_all_pairs():
    rng = random.Random(99)
    frags = _random_fragments(rng, 24)
    config = cfg(Fraction(30, 100), min_lines=3)
    got = pair_key_set(detect_pairs(frags, config))
    want = set()
    for i in range(len(frags)):
        for j in range(len(frags)):
            if i == j:
                continue
            a, b = frags[i], frags[j]
            if len(a.lines) < 3 or len(b.lines) < 3:
                continue
            hi = max(len(a.lines), len(b.lines))
            lcs = lcs_oracle(a.lines, b.lines)
            if Fraction(hi - lcs, hi) <= Fraction(30, 100):
                want.add(tuple(sorted((a.origin.uid, b.origin.uid))))
    assert {tuple(sorted(k)) for k in got} == want


def test_detect_pairs_canonical_order_and_shuffle_stable():
    rng = random.Random(5)
    frags = _random_fragments(rng, 18)
    config = cfg(Fraction(20, 100))
    baseline = detect_pairs(frags, config)
    assert baseline == sorted(baseline, key=lambda p: (p.left, p.right))
    for _ in range(5):
        rng.shuffle(frags)
        assert detect_pairs(frags, config) == baseline


def test_detect_pairs_leaves_out_pairs_among_known_contracts():
    frags = [frag(cid, ["x", "y", "z"]) for cid in "abcd"]
    full = detect_pairs(frags, cfg())
    assert len(full) == 6
    got = detect_pairs(frags, cfg(), known={"a", "b"})
    assert got == [p for p in full if {p.left.contract_id, p.right.contract_id} != {"a", "b"}]
    assert detect_pairs(frags, cfg(), known=set("abcd")) == []


_lines = st.lists(st.sampled_from("abc"), max_size=8)


@given(_lines, _lines, st.integers(min_value=0, max_value=30))
def test_clone_lcs_matches_oracle_threshold(a, b, k):
    """The size filter never rejects a pair the exact oracle decision accepts."""
    hi = max(len(a), len(b))
    lcs = lcs_oracle(a, b)
    want = lcs if (hi - lcs) * 100 <= k * hi else None
    assert clone_lcs(a, b, cfg(Fraction(k, 100))) == want


def test_pair_similarity_fields_consistent():
    a = frag("a", ["x", "y", "z", "w"])
    b = frag("b", ["x", "y", "z", "q"])
    (pair,) = detect_pairs([a, b], cfg(Fraction(30, 100)))
    assert (pair.lcs_len, pair.max_len) == (3, 4)
    assert pair.similarity == 3 / 4
    assert {pair.left.contract_id, pair.right.contract_id} == {"a", "b"}


def test_cluster_transitive_chain():
    a = frag("a", ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10"])
    b = frag("b", ["1", "2", "3", "4", "5", "6", "7", "8", "9", "x"])
    c = frag("c", ["1", "2", "3", "4", "5", "6", "7", "8", "x", "y"])
    config = cfg(Fraction(10, 100))
    pairs = detect_pairs([a, b, c], config)
    keys = pair_key_set(pairs)
    assert ("a:f:1-10", "b:f:1-10") in keys and ("b:f:1-10", "c:f:1-10") in keys
    assert ("a:f:1-10", "c:f:1-10") not in keys  # 8/10 misses at 10%
    (cls,) = cluster_classes(pairs)
    assert [m.contract_id for m in cls.members] == ["a", "b", "c"]
    expected_id = hashlib.sha1("\n".join(m.uid for m in cls.members).encode()).hexdigest()[:16]
    assert cls.class_id == expected_id


def test_cluster_separate_components():
    a, b = frag("a", ["p", "q", "r"]), frag("b", ["p", "q", "r"])
    c, d = frag("c", ["s", "t", "u"]), frag("d", ["s", "t", "u"])
    classes = cluster_classes(detect_pairs([a, b, c, d], cfg()))
    assert [[m.contract_id for m in cls.members] for cls in classes] == [["a", "b"], ["c", "d"]]


def test_threshold_monotonicity_property():
    rng = random.Random(1234)
    frags = _random_fragments(rng, 30)
    previous: set = set()
    for pct in (0, 10, 20, 30):
        current = pair_key_set(detect_pairs(frags, cfg(Fraction(pct, 100))))
        assert previous <= current
        previous = current


def test_consistent_pairs_subset_of_blind_pairs():
    rng = random.Random(4321)
    sources = []
    for i in range(16):
        names = [f"n{i}_{k}" if rng.random() < 0.5 else f"shared{k}" for k in range(3)]
        stmts = "\n".join(
            f"        {rng.choice(names)} = {rng.choice(names)} + {rng.randint(1, 3)};"
            for _ in range(rng.randint(2, 4))
        )
        sources.append(wrap(f"    function act(uint {names[0]}) public {{\n{stmts}\n    }}"))
    for pct in (0, 15, 30):
        blind_pairs = pair_key_set(
            detect_pairs(
                [norm(s, RenamingMode.BLIND, cid=f"c{i}") for i, s in enumerate(sources)],
                cfg(Fraction(pct, 100), mode=RenamingMode.BLIND, min_lines=3),
            )
        )
        cons_pairs = pair_key_set(
            detect_pairs(
                [norm(s, RenamingMode.CONSISTENT, cid=f"c{i}") for i, s in enumerate(sources)],
                cfg(Fraction(pct, 100), mode=RenamingMode.CONSISTENT, min_lines=3),
            )
        )
        assert cons_pairs <= blind_pairs


def test_similarity_accepts_normalized_fragments_from_source():
    left = norm(wrap("    function f() public { a = 1; b = 2; }"), RenamingMode.BLIND, cid="l")
    right = norm(wrap("    function f() public { c = 1; d = 2; }"), RenamingMode.BLIND, cid="r")
    assert similarity(left, right) == 1.0
