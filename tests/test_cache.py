"""Analysis cache persistence and incremental equivalence."""
from __future__ import annotations

import json
import logging
import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volcano.clone_engine as clone_engine_mod
import volcano.normalize as normalize_mod
from conftest import lcs_oracle, make_corpus, pair_key_set, wrap

from volcano.cache import (
    CACHE_FILE,
    CACHE_VERSION,
    VERSIONED_SOURCES,
    AnalysisCache,
    code_version,
    fragment_index,
    incremental_scan,
)
from volcano.clone_engine import CloneConfig
from volcano.corpus import Corpus
from volcano.errors import CacheConfigMismatch
from volcano.normalize import RenamingMode

BLIND_10 = CloneConfig(mode=RenamingMode.BLIND, max_difference=Fraction(10, 100))
CONSISTENT_30 = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(30, 100))


def contract_text(tag: int, variant: int = 0) -> str:
    lines = [
        f"    function pay{tag}(address to, uint amount) public {{",
        "        if (ledger >= amount)",
        "            to.send(amount);",
        "        ledger -= amount;",
        *(["        ledger -= 1;"] * variant),
        "    }",
    ]
    return wrap("\n".join(lines))


def clone_rich_corpus(n: int = 8) -> Corpus:
    # same shape everywhere: blind mode sees heavy cloning
    return make_corpus("rich", {f"c{i:02d}": contract_text(i % 3, variant=i % 2) for i in range(n)})


def full_result(corpus: Corpus, cfg: CloneConfig = BLIND_10):
    return incremental_scan(AnalysisCache.empty(cfg), corpus, cfg)


def record_sequences(cache: AnalysisCache) -> list[tuple[str, ...]]:
    """The sorted distinct line sequences of a cache's records, whose ranks a saved clone names."""
    return sorted({tuple(seq) for records in cache.fragments.values() for r in records for seq in r["lines"].values()})


def unordered(clones) -> set[tuple]:
    """Clone entries (lines_a, lines_b, lcs) with each pair's sides in sorted order."""
    return {(*sorted((a, b)), lcs) for a, b, lcs in clones}


def canonical(pairs, classes, *_) -> str:
    doc = {
        "pairs": [
            {"left": p.left.uid, "right": p.right.uid, "lcs": p.lcs_len, "max": p.max_len}
            for p in pairs
        ],
        "classes": [
            {"id": c.class_id, "members": [m.uid for m in c.members]} for c in classes
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_empty_cache_scan_finds_pairs_and_saves(tmp_path):
    corpus = clone_rich_corpus()
    cache = AnalysisCache.empty(CONSISTENT_30)
    pairs, classes, index = incremental_scan(cache, corpus, CONSISTENT_30)
    assert pairs and classes
    assert index == fragment_index(cache, corpus, CONSISTENT_30.mode)
    assert cache.contracts == {c.id: c.content_digest for c in corpus}
    cache.save(tmp_path)
    loaded = AnalysisCache.load(tmp_path)
    assert loaded is not None
    assert loaded.config_digest == CONSISTENT_30.digest()
    assert loaded.contracts == cache.contracts
    assert unordered(loaded.clones) == unordered(cache.clones)
    # one entry per clone pair of distinct sequences, each with its LCS,
    # saved as [i, j, lcs]: i < j ranks in the sorted distinct sequences
    seqs = record_sequences(loaded)
    want = set()
    for p in pairs:
        i, j = sorted((seqs.index(index[p.left].lines), seqs.index(index[p.right].lines)))
        if i != j:
            want.add((i, j, p.lcs_len))
    assert json.loads((tmp_path / CACHE_FILE).read_text())["clones"] == sorted(map(list, want))
    assert unordered(loaded.clones) == {(seqs[i], seqs[j], lcs) for i, j, lcs in want}
    assert all(lcs_oracle(a, b) == lcs for a, b, lcs in loaded.clones)


def test_rescan_without_changes_is_byte_identical(tmp_path):
    corpus = clone_rich_corpus()
    cache = AnalysisCache.empty(BLIND_10)
    baseline = canonical(*incremental_scan(cache, corpus, BLIND_10))
    cache.save(tmp_path)
    warm = AnalysisCache.load(tmp_path)
    again = canonical(*incremental_scan(warm, corpus, BLIND_10))
    assert again == baseline


def test_rescan_reuses_fragment_records(monkeypatch):
    corpus = clone_rich_corpus()
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, corpus, BLIND_10)
    calls = []
    monkeypatch.setattr(
        normalize_mod, "extract_functions", lambda c: calls.append(c.id) or []
    )
    incremental_scan(cache, corpus, BLIND_10)
    assert calls == []


def test_a_function_text_two_contracts_share_is_pretty_printed_once(monkeypatch):
    shared = "function kill(address evil) external {\n        suicide(evil);\n    }"
    corpus = make_corpus(
        "shared", {f"k{i}": wrap(f"    {shared}\n    function own{i}() public {{ owner = {i}; }}") for i in range(2)}
    )
    assert len({c.content_digest for c in corpus}) == 2
    printed = []
    real = normalize_mod.pretty_print
    monkeypatch.setattr(normalize_mod, "pretty_print", lambda f: printed.append(f.exact_text) or real(f))
    incremental_scan(AnalysisCache.empty(CONSISTENT_30), corpus, CONSISTENT_30)
    assert printed.count(shared) == 1
    assert len(printed) == len(set(printed)) == 3


def _two_functions(tag: int, edited: bool = False) -> str:
    return wrap(
        "\n".join([
            f"    function pay{tag}(address to, uint amount) public {{",
            "        if (ledger >= amount)",
            "            to.send(amount);",
            "        ledger -= amount;",
            "        paid -= amount;" if edited else "        paid += amount;",
            "        emit Paid(to, amount);",
            "    }",
            f"    function audit{tag}(uint limit) public {{",
            "        require(total <= limit);",
            f"        total = total * {tag + 2};",
            "        emit Audited(total);",
            "    }",
        ])
    )


def test_warm_scan_decides_no_pair_of_cached_sequences_again(tmp_path, monkeypatch):
    sources = {f"c{i}": _two_functions(i) for i in range(4)}
    cache = AnalysisCache.empty(CONSISTENT_30)
    incremental_scan(cache, make_corpus("v0", sources), CONSISTENT_30)
    cache.save(tmp_path)
    warm = AnalysisCache.load(tmp_path)
    cached = set(record_sequences(warm))

    sources["copy"] = sources["c1"]  # a copy under a new id
    # One token of c2's pay edited: 7 lines, 5 shared with each cached pay
    # sequence (the name differs too), a clone at 30% that needs the kernel.
    sources["c2"] = _two_functions(2, edited=True)
    corpus = make_corpus("v1", sources)
    calls = []
    original = clone_engine_mod.lcs_length
    monkeypatch.setattr(clone_engine_mod, "lcs_length", lambda a, b: calls.append((a, b)) or original(a, b))
    pairs, classes, _ = incremental_scan(warm, corpus, CONSISTENT_30)
    assert calls, "the edited function is new and must be decided"
    assert not [c for c in calls if c[0] in cached and c[1] in cached]
    assert canonical(pairs, classes) == canonical(*full_result(corpus, CONSISTENT_30))

    # n identical copies: one sequence, so no clone entry, yet n(n-1)/2 pairs
    n = 6
    corpus = make_corpus("copies", {f"c{i}": contract_text(1) for i in range(n)})
    cache = AnalysisCache.empty(CONSISTENT_30)
    pairs, classes, _ = incremental_scan(cache, corpus, CONSISTENT_30)
    cache.save(tmp_path)
    assert json.loads((tmp_path / CACHE_FILE).read_text())["clones"] == []
    assert len(pairs) == n * (n - 1) // 2
    assert [len(c.members) for c in classes] == [n]


def test_incremental_add_modify_remove_match_full_scan():
    rng = random.Random(2026)
    sources = {f"c{i:02d}": contract_text(i % 3, variant=i % 2) for i in range(10)}
    corpus = make_corpus("evolving", sources)
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, corpus, BLIND_10)

    for step in range(12):
        op = rng.choice(["add", "modify", "remove"])
        if op == "add" or not sources:
            sources[f"n{step:02d}"] = contract_text(rng.randint(0, 3), variant=rng.randint(0, 2))
        elif op == "modify":
            victim = rng.choice(sorted(sources))
            sources[victim] = contract_text(rng.randint(0, 3), variant=rng.randint(0, 2))
        else:
            sources.pop(rng.choice(sorted(sources)))
        corpus = make_corpus("evolving", sources)
        incremental = canonical(*incremental_scan(cache, corpus, BLIND_10))
        scratch = canonical(*full_result(corpus))
        assert incremental == scratch, f"divergence after {op} at step {step}"


EDIT = st.tuples(
    st.sampled_from(["add", "modify", "remove", "rename", "duplicate"]),
    st.integers(0, 63),  # which existing file
    st.integers(0, 11),  # name of the new file
    st.integers(0, 3),  # content: contract_text(tag, variant)
    st.integers(0, 2),
)


def _apply(sources: dict[str, str], op, pick, name, tag, variant) -> None:
    existing = sorted(sources)
    new_name, text = f"c{name:02d}.sol", contract_text(tag, variant)
    if op == "add" or not existing:
        sources[new_name] = text
        return
    victim = existing[pick % len(existing)]
    if op == "modify":
        sources[victim] = text
    elif op == "remove":
        del sources[victim]
    elif op == "rename":
        sources[new_name] = sources.pop(victim)
    else:
        sources[new_name] = sources[victim]


@settings(max_examples=40, deadline=None)
@given(
    cfg=st.sampled_from([BLIND_10, CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(30, 100))]),
    generations=st.lists(st.lists(EDIT, min_size=1, max_size=4), min_size=1, max_size=4),
)
def test_incremental_equals_scratch_across_saved_generations(cfg, generations):
    def key(pairs, classes, *_):
        return (
            [(p.left, p.right, p.lcs_len, p.max_len, p.similarity) for p in pairs],
            [(c.class_id, c.members) for c in classes],
        )

    sources = {f"c{i:02d}.sol": contract_text(i % 3, variant=i % 2) for i in range(0, 8, 2)}
    with tempfile.TemporaryDirectory() as cache_dir:
        for edits in [[]] + generations:
            for edit in edits:
                _apply(sources, *edit)
            corpus = make_corpus("edited", dict(sorted(sources.items())))
            cache = AnalysisCache.load(cache_dir) or AnalysisCache.empty(cfg)
            incremental = key(*incremental_scan(cache, corpus, cfg))
            cache.save(cache_dir)
            assert incremental == key(*full_result(corpus, cfg))


def test_cache_config_mismatch_raises():
    corpus = clone_rich_corpus(4)
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, corpus, BLIND_10)
    other = CloneConfig(mode=RenamingMode.BLIND, max_difference=Fraction(20, 100))
    with pytest.raises(CacheConfigMismatch) as err:
        incremental_scan(cache, corpus, other)
    assert "volcano cache clear" in str(err.value)


def test_corrupt_cache_loads_as_none_with_warning(tmp_path, caplog):
    (tmp_path / CACHE_FILE).write_text("{ not json")
    with caplog.at_level(logging.WARNING, logger="volcano.cache"):
        assert AnalysisCache.load(tmp_path) is None
    assert any("falling back to full analysis" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "clones",
    [
        [[0, 6, 4]],  # index out of range: the corpus holds six sequences
        [[1, 0, 4]],  # i >= j
        [[1, 1, 4]],
        [[0, 1, 0]],  # lcs of 0
        [[0, 1, 6]],  # lcs longer than the shorter sequence (5 lines)
        [[0, 1, 7]],  # lcs longer than the longer sequence (6 lines)
        [[0, 1, "4"]],  # a non-int field
        [[0, 1, None]],
        [[0, True, 4]],
        [[0, 1]],  # wrong arity
        [[0, 1, 4, 5]],
        {"0": [1, 4]},  # clones not a list
    ],
    ids=["range", "order", "self", "lcs0", "lcs-long", "lcs-longest", "str", "null", "bool", "arity2", "arity4", "dict"],
)
def test_cache_with_an_impossible_pair_loads_as_none(clones, tmp_path, caplog):
    cache = AnalysisCache.empty(CONSISTENT_30)
    incremental_scan(cache, clone_rich_corpus(), CONSISTENT_30)
    cache.save(tmp_path)
    assert [len(seq) for seq in record_sequences(cache)] == [6, 5, 6, 5, 6, 5]
    blob = json.loads((tmp_path / CACHE_FILE).read_text())
    assert [0, 1, 5] in blob["clones"]
    blob["clones"] = clones
    (tmp_path / CACHE_FILE).write_text(json.dumps(blob))
    with caplog.at_level(logging.WARNING, logger="volcano.cache"):
        assert AnalysisCache.load(tmp_path) is None
    assert any("falling back to full analysis" in r.message for r in caplog.records)


def _drop(key):
    def edit(blob):
        del _first_record(blob)[key]
    return edit


def _first_record(blob) -> dict:
    return next(iter(blob["fragments"].values()))[0]


def _set_record(**values):
    return lambda blob: _first_record(blob).update(values)


def _set_table(key, value):
    return lambda blob: blob.update({key: value})


@pytest.mark.parametrize(
    "edit",
    [
        _drop("lines"),
        _drop("name"),
        _set_record(start_line="3"),
        _set_record(end_line=None),
        _set_record(lines=[["a ;"]]),
        _set_record(lines={"blind": "a ;"}),
        _set_record(lines={"blind": [1]}),
        _set_record(lines={}),
        _set_table("contracts", []),
        _set_table("contracts", {"c00": 1}),
        _set_table("fragments", []),
        _set_table("fragments", {"d": {}}),
        _set_table("fragments", {"d": ["r"]}),
        _set_table("config_digest", [1]),
    ],
)
def test_cache_of_the_wrong_shape_loads_as_none(edit, tmp_path, caplog):
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, clone_rich_corpus(), BLIND_10)
    cache.save(tmp_path)
    blob = json.loads((tmp_path / CACHE_FILE).read_text())
    edit(blob)
    (tmp_path / CACHE_FILE).write_text(json.dumps(blob))
    with caplog.at_level(logging.WARNING, logger="volcano.cache"):
        assert AnalysisCache.load(tmp_path) is None
    assert any("falling back to full analysis" in r.message for r in caplog.records)


def test_wrong_version_cache_ignored(tmp_path, caplog):
    corpus = clone_rich_corpus(3)
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, corpus, BLIND_10)
    cache.save(tmp_path)
    blob = json.loads((tmp_path / CACHE_FILE).read_text())
    blob["version"] = 99
    (tmp_path / CACHE_FILE).write_text(json.dumps(blob))
    with caplog.at_level(logging.WARNING, logger="volcano.cache"):
        assert AnalysisCache.load(tmp_path) is None
    assert any("version" in r.message for r in caplog.records)


def test_cache_version_follows_the_analysis_code(tmp_path):
    copies = []
    for source in VERSIONED_SOURCES:
        copy = tmp_path / source.name
        copy.write_bytes(source.read_bytes())
        copies.append(copy)
    assert code_version(copies) == CACHE_VERSION
    assert [p.name for p in VERSIONED_SOURCES] == [
        "extractor.py", "normalize.py", "clone_engine.py", "cache.py",
    ]
    for copy in copies:
        original = copy.read_bytes()
        copy.write_bytes(original + b"\n# changed\n")
        assert code_version(copies) != CACHE_VERSION, copy.name
        copy.write_bytes(original)
    assert code_version(copies) == CACHE_VERSION


def test_missing_cache_loads_as_none(tmp_path):
    assert AnalysisCache.load(tmp_path / "never") is None


def test_clear_removes_cache_file(tmp_path):
    corpus = clone_rich_corpus(3)
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, corpus, BLIND_10)
    cache.save(tmp_path)
    assert (tmp_path / CACHE_FILE).exists()
    cache.clear(tmp_path)
    assert not (tmp_path / CACHE_FILE).exists()
    cache.clear(tmp_path)  # idempotent


def test_fragment_index_restores_each_mode():
    corpus = clone_rich_corpus(2)
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, corpus, BLIND_10)
    # a cache is bound to one config, so it keeps lines for its own mode only
    for records in cache.fragments.values():
        assert all(set(r["lines"]) == {"blind"} for r in records)
    index = fragment_index(cache, corpus, RenamingMode.BLIND)
    assert len(index) == 2
    for ref, nf in index.items():
        assert nf.origin == ref
        assert nf.mode is RenamingMode.BLIND
        assert all(line is sys.intern(line) for line in nf.lines)
    assert all("X" in "\n".join(nf.lines) for nf in index.values())


def test_duplicate_content_shares_fragment_records():
    text = contract_text(1)
    corpus = make_corpus("dup", {"a": text, "b": text})
    cache = AnalysisCache.empty(BLIND_10)
    pairs, _, _ = incremental_scan(cache, corpus, BLIND_10)
    assert len(cache.fragments) == 1  # keyed by content digest
    assert pair_key_set(pairs)  # the two copies still pair up
