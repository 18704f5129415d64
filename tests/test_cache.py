"""Analysis cache persistence and incremental equivalence."""
from __future__ import annotations

import json
import logging
import random
import sys
from fractions import Fraction

import pytest

import volcano.normalize as normalize_mod
from conftest import make_corpus, pair_key_set, wrap

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


def canonical(pairs, classes) -> str:
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
    cache = AnalysisCache.empty(BLIND_10)
    pairs, classes = incremental_scan(cache, corpus, BLIND_10)
    assert pairs and classes
    assert cache.contracts == {c.id: c.content_digest for c in corpus}
    cache.save(tmp_path)
    loaded = AnalysisCache.load(tmp_path)
    assert loaded is not None
    assert loaded.config_digest == BLIND_10.digest()
    assert loaded.contracts == cache.contracts
    assert pair_key_set(loaded.pairs) == pair_key_set(pairs)
    assert all(p.similarity == p.lcs_len / p.max_len for p in loaded.pairs)


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
    pairs, _ = incremental_scan(cache, corpus, BLIND_10)
    assert len(cache.fragments) == 1  # keyed by content digest
    assert pair_key_set(pairs)  # the two copies still pair up
