"""Analysis cache persistence and incremental equivalence."""
from __future__ import annotations

import json
import logging
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

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


def twice_held_corpus() -> Corpus:
    """clone_rich_corpus and a commented copy of each contract: every
    sequence is held by records under two content digests."""
    sources = {c.id: c.source_text for c in clone_rich_corpus()}
    return make_corpus("twice", {**sources, **{f"copy-{cid}": text + "// a copy\n" for cid, text in sources.items()}})


def full_result(corpus: Corpus, cfg: CloneConfig = BLIND_10):
    return incremental_scan(AnalysisCache.empty(cfg), corpus, cfg)


def record_sequences(cache: AnalysisCache) -> list[tuple[str, ...]]:
    """The sorted distinct line sequences of a cache's records: the saved sequence table."""
    return sorted({lines for records in cache.fragments.values() for *_, lines in records})


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
    pairs, classes, table = incremental_scan(cache, corpus, CONSISTENT_30)
    assert pairs and classes
    assert table == fragment_index(cache, corpus)
    cache.save(tmp_path)
    loaded = AnalysisCache.load(tmp_path)
    assert loaded is not None
    assert loaded.config_digest == CONSISTENT_30.digest()
    assert unordered(loaded.clones) == unordered(cache.clones)
    # one entry per clone pair of distinct sequences, each with its LCS,
    # saved as [i, j, lcs]: i < j indices into the sorted sequence table
    seqs = record_sequences(loaded)
    blob = json.loads((tmp_path / CACHE_FILE).read_text())
    assert set(blob) == {"version", "config_digest", "sequences", "fragments", "clones"}
    assert blob["sequences"] == [list(seq) for seq in seqs]
    assert blob["fragments"] == {
        digest: [[name, start, end, seqs.index(lines)] for name, start, end, lines in records]
        for digest, records in cache.fragments.items()
    }
    assert (tmp_path / CACHE_FILE).read_text() == json.dumps(blob, sort_keys=True, separators=(",", ":"))
    want = set()
    for p in pairs:
        i, j = sorted((seqs.index(table[p.left]), seqs.index(table[p.right])))
        if i != j:
            want.add((i, j, p.lcs_len))
    assert blob["clones"] == sorted(map(list, want))
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
            [(p.left, p.right, p.lcs_len, p.max_len, p.lcs_len / p.max_len) for p in pairs],
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


def _drop(field):
    def edit(blob):
        del _first_record(blob)[field]
    return edit


def _first_record(blob) -> list:
    """[name, start_line, end_line, seq] of the first digest's first record."""
    return next(iter(blob["fragments"].values()))[0]


def _set_record(field, value):
    return lambda blob: _first_record(blob).__setitem__(field, value)


def _set_sequence(index, value):
    return lambda blob: blob["sequences"].__setitem__(index, value)


def _set_table(key, value):
    return lambda blob: blob.update({key: value})


def _remap(blob, new_index):
    """Point every record and clone entry that names sequence k at new_index(k)."""
    for records in blob["fragments"].values():
        for record in records:
            record[3] = new_index(record[3])
    blob["clones"] = [[new_index(i), new_index(j), lcs] for i, j, lcs in blob["clones"]]


def _unsorted(blob):
    seqs = blob["sequences"]
    seqs[0], seqs[1] = seqs[1], seqs[0]
    _remap(blob, lambda k: {0: 1, 1: 0}.get(k, k))


def _insert_sequence(blob, seq):
    """seq as table entry 1, every other reference kept on its own sequence."""
    blob["sequences"].insert(1, seq)
    _remap(blob, lambda k: k + (k >= 1))


def _duplicate(blob):
    _insert_sequence(blob, blob["sequences"][0])
    next(iter(blob["fragments"].values())).append(["copy", 1, 6, 1])


def _unused(blob):
    # sorts between entries 0 and 1: entry 0 is its prefix, and it differs
    # from entry 1 where entry 0 does
    _insert_sequence(blob, blob["sequences"][0] + ["~"])


@pytest.mark.parametrize(
    "edit",
    [
        # each record is [name, start_line, end_line, seq]
        _drop(3),
        _drop(0),
        _set_record(1, "3"),
        _set_record(2, None),
        _set_record(3, [0]),
        _set_sequence(0, "a ;"),
        _set_sequence(0, [1]),
        _set_sequence(0, []),
        lambda blob: blob.pop("sequences"),
        lambda blob: blob.pop("fragments"),
        _set_table("fragments", []),
        lambda blob: blob["fragments"].update(d={}),
        lambda blob: blob["fragments"].update(d=["r"]),
        _set_table("config_digest", [1]),
        pytest.param(_unsorted, id="unsorted"),
        pytest.param(_duplicate, id="duplicate"),
        pytest.param(_unused, id="unused"),
        pytest.param(_set_table("sequences", {}), id="table-dict"),
        pytest.param(_set_sequence(1, ["{", None]), id="line-null"),
        pytest.param(_set_sequence(1, [["{"]]), id="line-list"),
        pytest.param(_set_record(3, 6), id="seq-range"),
        pytest.param(_set_record(3, -1), id="seq-negative"),
        pytest.param(_set_record(3, True), id="seq-bool"),
        pytest.param(_set_record(3, 1.0), id="seq-float"),
        pytest.param(lambda blob: _first_record(blob).append(0), id="arity5"),
        pytest.param(lambda blob: blob["fragments"].update(d=[{"name": "f"}]), id="record-dict"),
    ],
)
def test_cache_of_the_wrong_shape_loads_as_none(edit, tmp_path, caplog):
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, twice_held_corpus(), BLIND_10)
    cache.save(tmp_path)
    blob = json.loads((tmp_path / CACHE_FILE).read_text())
    # a record pointed elsewhere leaves its sequence used by its copy's record
    assert len(blob["sequences"]) == 6 and len(blob["fragments"]) == 12
    assert AnalysisCache.load(tmp_path) is not None
    edit(blob)
    (tmp_path / CACHE_FILE).write_text(json.dumps(blob))
    with caplog.at_level(logging.WARNING, logger="volcano.cache"):
        assert AnalysisCache.load(tmp_path) is None
    assert any("falling back to full analysis" in r.message for r in caplog.records)


def test_a_remapped_cache_of_the_right_shape_loads(tmp_path):
    """The edits above that build a broken table keep every other reference
    intact: without the defect they plant, the cache loads."""
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, twice_held_corpus(), BLIND_10)
    cache.save(tmp_path)
    blob = json.loads((tmp_path / CACHE_FILE).read_text())
    _unsorted(blob)
    _unsorted(blob)
    seq = blob["sequences"][0] + ["~"]
    _insert_sequence(blob, seq)
    next(iter(blob["fragments"].values())).append(["extra", 1, 7, 1])
    (tmp_path / CACHE_FILE).write_text(json.dumps(blob))
    loaded = AnalysisCache.load(tmp_path)
    assert loaded is not None
    assert tuple(seq) in record_sequences(loaded)
    assert loaded.fragments.keys() == cache.fragments.keys()


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


def test_fragment_index_restores_each_mode(tmp_path):
    # b's text differs from a's by a comment, so the two digests share one sequence
    text = contract_text(1)
    corpus = make_corpus("modes", {"a": text, "b": text + "// a copy\n"})
    for cfg in (BLIND_10, CONSISTENT_30, CloneConfig(mode=RenamingMode.NONE)):
        cache = AnalysisCache.empty(cfg)
        incremental_scan(cache, corpus, cfg)
        cache.save(tmp_path / cfg.mode.value)
        loaded = AnalysisCache.load(tmp_path / cfg.mode.value)
        # a cache is bound to one config, so its records name no mode
        assert loaded.fragments == cache.fragments
        assert all(len(r) == 4 for records in loaded.fragments.values() for r in records)
        (a,), (b,) = loaded.fragments.values()
        assert a[3] is b[3]  # one tuple per saved sequence
        table = fragment_index(loaded, corpus)
        assert table == fragment_index(cache, corpus)
        assert [ref.contract_id for ref in table] == ["a", "b"]
        for lines in table.values():
            assert lines is a[3]
            assert all(line is sys.intern(line) for line in lines)
            assert ("X" in "\n".join(lines)) == (cfg.mode is not RenamingMode.NONE)


def test_duplicate_content_shares_fragment_records():
    text = contract_text(1)
    corpus = make_corpus("dup", {"a": text, "b": text})
    cache = AnalysisCache.empty(BLIND_10)
    pairs, _, _ = incremental_scan(cache, corpus, BLIND_10)
    assert len(cache.fragments) == 1  # keyed by content digest
    assert pair_key_set(pairs)  # the two copies still pair up


def test_two_saves_into_one_directory_do_not_clash(tmp_path, monkeypatch):
    first, second = AnalysisCache.empty(CONSISTENT_30), AnalysisCache.empty(CONSISTENT_30)
    incremental_scan(first, clone_rich_corpus(), CONSISTENT_30)
    incremental_scan(second, clone_rich_corpus(3), CONSISTENT_30)
    real = os.replace

    def replace_after_the_second_save(src, dst):
        monkeypatch.setattr(os, "replace", real)
        second.save(tmp_path)  # a second process saves before the first renames its file
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_the_second_save)
    first.save(tmp_path)
    assert os.replace is real, "the second save ran"
    loaded = AnalysisCache.load(tmp_path)
    assert loaded is not None and loaded.fragments == first.fragments  # the last rename wins
    assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]


def test_a_failed_save_removes_its_temporary_file(tmp_path, monkeypatch):
    cache = AnalysisCache.empty(BLIND_10)
    incremental_scan(cache, clone_rich_corpus(3), BLIND_10)
    cache.save(tmp_path)
    saved = (tmp_path / CACHE_FILE).read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cache.save(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]
    assert (tmp_path / CACHE_FILE).read_bytes() == saved


FILE = st.tuples(
    st.integers(0, 3),  # tag
    st.integers(0, 2),  # variant, or whether the two-function text is edited
    st.booleans(),  # two functions (_two_functions) or one (contract_text)
    st.booleans(),  # a trailing comment: another digest, the same sequences
)


@settings(max_examples=40, deadline=None)
@given(
    cfg=st.sampled_from([BLIND_10, CONSISTENT_30]),
    files=st.dictionaries(st.integers(0, 11), FILE, max_size=8),
)
def test_a_saved_cache_loads_equal_and_saves_byte_identical(cfg, files):
    sources = {
        f"c{name:02d}.sol": (_two_functions(tag, bool(variant)) if two else contract_text(tag, variant))
        + ("// a copy\n" if comment else "")
        for name, (tag, variant, two, comment) in files.items()
    }
    cache = AnalysisCache.empty(cfg)
    incremental_scan(cache, make_corpus("round-trip", sources), cfg)
    with tempfile.TemporaryDirectory() as cache_dir:
        cache.save(cache_dir)
        saved = (Path(cache_dir) / CACHE_FILE).read_bytes()
        loaded = AnalysisCache.load(cache_dir)
        assert loaded is not None
        assert loaded.config_digest == cache.config_digest
        assert loaded.fragments == cache.fragments
        assert unordered(loaded.clones) == unordered(cache.clones)
        loaded.save(cache_dir)
        assert (Path(cache_dir) / CACHE_FILE).read_bytes() == saved
