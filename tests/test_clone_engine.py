"""LCS similarity, clone decisions, pair detection, clustering."""
from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import volcano.clone_engine as clone_engine_mod
from conftest import lcs_dp, lcs_oracle, make_contract, norm, pair_key_set, wrap

from volcano.clone_engine import (
    CloneConfig,
    _candidates,
    _fragment_pairs,
    _sequence_classes,
    _sequence_pairs,
    clone_classes,
    clone_lcs,
    cluster_classes,
    detect_pairs,
    lcs_length,
    similarity,
    within_window,
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


def table_of(fragments) -> dict:
    """The fragment table {origin: lines}; the last fragment given for an origin stands for it."""
    return {nf.origin: nf.lines for nf in fragments}


def cfg(threshold=Fraction(0), mode=RenamingMode.BLIND, min_lines=1, max_lines=None):
    return CloneConfig(mode=mode, max_difference=threshold, min_lines=min_lines, max_lines=max_lines)


def is_clone_pair(a: NormalizedFragment, b: NormalizedFragment, config: CloneConfig) -> bool:
    """The clone relation for one pair; a fragment never pairs with itself."""
    return bool(detect_pairs([a, b], config))


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


@st.composite
def _line_pairs(draw, max_size):
    """Two line tuples over one small alphabet, so that lines repeat."""
    alphabet = st.sampled_from([f"line {i};" for i in range(draw(st.integers(1, 6)))])

    def lines():
        # Length drawn first: st.lists alone rarely goes past 64 items.
        size = draw(st.integers(0, max_size))
        return tuple(draw(st.lists(alphabet, min_size=size, max_size=size)))

    return lines(), lines()


@given(_line_pairs(200))
def test_lcs_matches_dp_and_is_symmetric(pair):
    """Past 64 lines the bit vectors are wider than one machine word."""
    a, b = pair
    assert lcs_length(a, b) == lcs_dp(a, b) == lcs_length(b, a)


@given(_line_pairs(10))
def test_lcs_matches_oracle(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_oracle(a, b)


def test_similarity_frozen_values():
    a = frag("a", ["l1", "l2", "l3"])
    b = frag("b", ["l1", "l3"])
    assert similarity(a.lines, b.lines) == pytest.approx(2 / 3)
    ten = frag("t", [f"l{i}" for i in range(10)])
    seven = frag("s", [f"l{i}" for i in range(7)] + ["q1", "q2", "q3"])
    assert similarity(ten.lines, seven.lines) == pytest.approx(0.7)
    assert similarity(a.lines, a.lines) == 1.0


def test_similarity_on_empty_raises():
    with pytest.raises(EmptyFragment):
        similarity(frag("a", []).lines, frag("b", ["x"]).lines)


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


_lines = st.lists(st.sampled_from("abc"), max_size=8)


@given(_lines, _lines, st.integers(min_value=0, max_value=30))
def test_clone_lcs_matches_oracle_threshold(a, b, k):
    """The size filter never rejects a pair the exact oracle decision accepts."""
    hi = max(len(a), len(b))
    lcs = lcs_oracle(a, b)
    want = lcs if (hi - lcs) * 100 <= k * hi else None
    assert clone_lcs(a, b, cfg(Fraction(k, 100))) == want


# Fragments drawn from few contracts, start lines and sequences, so that
# sequences and whole origins repeat; end_line does not follow the line
# count, so one origin can carry two different sequences.
_fragments = st.lists(
    st.builds(
        lambda cid, start, lines: NormalizedFragment(
            origin=FragmentRef(cid, start, start, "f"), mode=RenamingMode.BLIND, lines=tuple(lines)
        ),
        st.sampled_from("abcd"),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(
            [(), ("a",), ("a", "b"), ("a", "b", "c"), ("a", "c", "b"), ("b", "b", "a", "c"),
             ("a", "b", "c", "a", "b"), ("c", "a", "b", "c", "a", "b")]
        ),
    ),
    max_size=12,
)


@st.composite
def _near_misses(draw):
    """Fragments edited from a few base sequences over a wide alphabet.

    Copies of one base clone or nearly clone; the bases share few lines, so
    most pairs share no prefix token and the candidate index prunes them.
    """
    line = st.sampled_from([f"s{i};" for i in range(draw(st.integers(2, 24)))])
    bases = draw(st.lists(st.lists(line, min_size=1, max_size=8), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, 10))):
        lines = list(draw(st.sampled_from(bases)))
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(lines) - 1)) if lines else 0
            op = draw(st.sampled_from(["insert", "delete", "replace"])) if lines else "insert"
            if op == "insert":
                lines.insert(i, draw(line))
            elif op == "delete":
                del lines[i]
            else:
                lines[i] = draw(line)
        cid, start = draw(st.sampled_from("abcd")), draw(st.integers(1, 3))
        out.append(NormalizedFragment(
            origin=FragmentRef(cid, start, start, "f"), mode=RenamingMode.BLIND, lines=tuple(lines)
        ))
    return out


_configs = st.builds(
    lambda k, lo, extra: cfg(Fraction(k, 100), min_lines=lo, max_lines=None if extra is None else lo + extra),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)


def _last_per_origin(fragments):
    return list({nf.origin: nf for nf in fragments}.values())


def _brute_pairs(fragments, config):
    """Every clone pair by a double loop over the last fragment of each origin, sorted by origin."""
    def inside(nf):
        n = len(nf.lines)
        return config.min_lines <= n and (config.max_lines is None or n <= config.max_lines)

    eligible = sorted((nf for nf in _last_per_origin(fragments) if inside(nf)), key=lambda nf: nf.origin)
    out = []
    for i, a in enumerate(eligible):
        for b in eligible[i + 1:]:
            hi = max(len(a.lines), len(b.lines))
            lcs = lcs_oracle(a.lines, b.lines)
            if Fraction(hi - lcs, hi) <= config.max_difference:
                out.append((a.origin, b.origin, lcs, hi))
    return out


@given(st.one_of(_fragments, _near_misses()), _configs)
def test_detect_pairs_equals_brute_force(fragments, config):
    got = [(p.left, p.right, p.lcs_len, p.max_len) for p in detect_pairs(fragments, config)]
    assert got == _brute_pairs(fragments, config)


def test_an_origin_given_twice_pairs_as_its_last_fragment_once():
    a_old, a_new, b = frag("a.sol", "abcd"), frag("a.sol", "abce"), frag("b.sol", "abcd")
    config = cfg(Fraction(30, 100))
    got = [(p.left.uid, p.right.uid, p.lcs_len) for p in detect_pairs([a_old, a_new, b], config)]
    assert got == [("a.sol:f:1-4", "b.sol:f:1-4", 3)]
    (cls,) = clone_classes(table_of([a_old, a_new, b]), config)
    assert cls.members == (a_new.origin, b.origin)


def _decisions(fragments, config):
    """The clone decisions of a run over fragments, as _sequence_pairs takes them."""
    _, groups, clones = _sequence_pairs(table_of(fragments), config)
    return set(groups), clones


def _unordered(clones) -> set[tuple]:
    """Clone decisions (lines_a, lines_b, lcs) with each pair's sides in sorted order."""
    return {(*sorted((a, b)), lcs) for a, b, lcs in clones}


@given(st.one_of(_fragments, _near_misses()), _configs, st.sets(st.sampled_from("abcd")))
def test_sequence_pairs_seeded_with_earlier_decisions_equal_an_unseeded_run(fragments, config, seen):
    known, decided = _decisions([nf for nf in fragments if nf.origin.contract_id in seen], config)
    table = table_of(fragments)
    seeded = _sequence_pairs(table, config, known, decided)
    unseeded = _sequence_pairs(table, config)
    # warm equals cold: the decisions a cache keeps are those of a fresh run
    assert len(seeded[2]) == len(unseeded[2])
    assert _unordered(seeded[2]) == _unordered(unseeded[2])
    assert _fragment_pairs(*seeded) == detect_pairs(fragments, config)
    assert _sequence_classes(*seeded) == clone_classes(table, config)


@given(_near_misses(), _configs, st.sets(st.sampled_from("abcd")))
def test_candidates_hold_every_clone_pair_with_a_new_side(fragments, config, seen):
    """The pairs _sequence_pairs decides hold every brute-force clone pair of
    distinct in-window sequences but those of two known sequences, and none
    of those."""
    known, decided = _decisions([nf for nf in fragments if nf.origin.contract_id in seen], config)
    with mock.patch.object(clone_engine_mod, "clone_lcs", wraps=clone_lcs) as decide:
        _sequence_pairs(table_of(fragments), config, known, decided)
    decided = [c.args[:2] for c in decide.call_args_list]
    assert len({frozenset(p) for p in decided}) == len(decided)
    assert not [p for p in decided if p[0] in known and p[1] in known]
    seqs = {nf.lines for nf in _last_per_origin(fragments) if within_window(len(nf.lines), config)}
    assert {s for p in decided for s in p} <= seqs
    num, den = config.max_difference.numerator, config.max_difference.denominator
    for a, b in itertools.combinations(sorted(seqs), 2):
        hi = max(len(a), len(b))
        if (a not in known or b not in known) and (hi - lcs_dp(a, b)) * den <= num * hi:
            assert (a, b) in decided or (b, a) in decided


def test_candidates_keep_a_boundary_clone_whose_only_shared_prefix_tokens_sit_last():
    """10 lines at 30%: need 7 shared lines, so the prefix is 4 tokens. The
    three lines of each side's own (frequency 1) come first, then the first
    of the seven shared lines (frequency 2): one shared token, last in each."""
    shared = [f"s{i};" for i in range(7)]
    a = tuple(shared + ["a0;", "a1;", "a2;"])
    b = tuple(shared + ["b0;", "b1;", "b2;"])
    assert _candidates([], [a, b], cfg(Fraction(30, 100))) == [(a, b)]
    (pair,) = detect_pairs([frag("a", a), frag("b", b)], cfg(Fraction(30, 100)))
    assert (pair.lcs_len, pair.max_len) == (7, 10)
    # One token fewer in each prefix, and the pair is pruned, rightly.
    assert _candidates([], [a, b], cfg(Fraction(29, 100))) == []
    assert detect_pairs([frag("a", a), frag("b", b)], cfg(Fraction(29, 100))) == []


def test_candidate_index_runs_no_kernel_on_dissimilar_functions(monkeypatch):
    """40 functions of 8 lines sharing only their braces, plus a near-miss
    copy of one: the size filter keeps all 820 pairs, the index one."""
    frags = [frag(f"c{i:02d}", ["{", *(f"v{i}_{k} = {k};" for k in range(6)), "}"]) for i in range(40)]
    twin = list(frags[0].lines)
    twin[3] = "w = 2;"
    frags.append(frag("twin", twin))
    calls = []
    real = clone_engine_mod.lcs_length
    monkeypatch.setattr(clone_engine_mod, "lcs_length", lambda a, b: calls.append(1) or real(a, b))
    (pair,) = detect_pairs(frags, cfg(Fraction(30, 100)))
    assert (pair.left.contract_id, pair.right.contract_id, pair.lcs_len) == ("c00", "twin", 7)
    assert len(calls) == 1


@given(_fragments, _configs)
def test_clone_classes_equal_clustered_pairs(fragments, config):
    assert clone_classes(table_of(fragments), config) == cluster_classes(detect_pairs(fragments, config))


def test_pair_similarity_fields_consistent():
    a = frag("a", ["x", "y", "z", "w"])
    b = frag("b", ["x", "y", "z", "q"])
    (pair,) = detect_pairs([a, b], cfg(Fraction(30, 100)))
    assert (pair.lcs_len, pair.max_len) == (3, 4)
    assert pair.lcs_len / pair.max_len == 3 / 4
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
    assert similarity(left.lines, right.lines) == 1.0
