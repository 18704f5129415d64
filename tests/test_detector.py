"""Signature scanning, reports, and evolution analysis."""
from __future__ import annotations

import csv
import json
import multiprocessing
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import evolution_cell, make_corpus, norm, wrap

import volcano.clone_engine as clone_engine_mod
import volcano.detector as detector_mod
import volcano.normalize as normalize_mod
from volcano.cache import AnalysisCache, incremental_sequences
from volcano.cli import main
from volcano.clone_engine import CloneConfig, clone_lcs, match_exemplars
from volcano.corpus import Corpus, sort_by_version
from volcano.detector import (
    Detection,
    EvolutionReport,
    ScanReport,
    _Node,
    analyze_evolution,
    scan,
    write_catalog_csv,
)
from volcano.errors import EmptySignatureSet
from volcano.extractor import FragmentRef, extract_functions
from volcano.normalize import RenamingMode, in_mode, pretty_print
from volcano.signatures import (
    SignatureSet,
    VulnerabilityType,
    VulnSignature,
    builtin_signatures,
    derive_signatures,
)

BLIND_0 = CloneConfig(mode=RenamingMode.BLIND, max_difference=Fraction(0))
BLIND_30 = CloneConfig(mode=RenamingMode.BLIND, max_difference=Fraction(30, 100))
CONSISTENT_0 = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(0))
CONSISTENT_30 = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(30, 100))

KILL_CONTRACT = wrap(
    "    function kill(address evil) external {\n"
    "        suicide(evil);\n"
    "    }\n"
    "    function tally(uint a) public {\n"
    "        sum += a;\n"
    "    }"
)


def renamed_reentrancy_plus_require() -> str:
    """The scan walkthrough: bijective renaming plus one inserted line."""
    return wrap(
        "\n".join(
            [
                "    function externalSend(uint amt) {",
                "        require(bal > 0);",
                "        if (bal >= amt)",
                "            msg.sender.call.value(amt)();",
                "        bal -= amt;",
                "    }",
            ]
        )
    )


def test_scan_exact_match_single_detection():
    corpus = make_corpus("victims", {"v": KILL_CONTRACT})
    report = scan(corpus, builtin_signatures(), CONSISTENT_0)
    assert len(report.detections) == 1
    det = report.detections[0]
    assert det.sig_id == "dos-open-suicide"
    assert det.vuln_type.name == "DOS"
    assert det.similarity == 1.0
    assert det.target.contract_id == "v"
    assert det.target.name == "kill"
    assert report.per_type_instances["DOS"] == 1
    assert sum(report.per_type_instances.values()) == 1
    assert set(report.per_type_instances) == {t for t in report.per_type_instances}
    assert report.contract_count == 1


def test_scan_near_miss_walkthrough_five_sixths():
    corpus = make_corpus("walk", {"w": renamed_reentrancy_plus_require()})
    report = scan(corpus, builtin_signatures(), CONSISTENT_30)
    got = {(d.sig_id, round(d.similarity, 9)) for d in report.detections}
    assert got == {
        ("reentrancy-late-state-update", round(5 / 6, 9)),
        ("integer-unchecked-balance-math", round(5 / 6, 9)),
    }
    # at threshold 0 the inserted line breaks the exact match
    assert scan(corpus, builtin_signatures(), CONSISTENT_0).detections == []


def test_scan_wider_threshold_adds_near_misses():
    corpus = make_corpus("victims", {"v": KILL_CONTRACT})
    report = scan(corpus, builtin_signatures(), CONSISTENT_30)
    got = {(d.sig_id, d.similarity) for d in report.detections}
    assert got == {("dos-open-suicide", 1.0), ("dos-open-selfdestruct", 0.75)}
    # two detections on one fragment stay one DOS instance
    assert report.per_type_instances["DOS"] == 1


def test_scan_requires_signatures():
    corpus = make_corpus("v", {"v": KILL_CONTRACT})
    with pytest.raises(EmptySignatureSet):
        scan(corpus, SignatureSet(), CONSISTENT_0)


def test_scan_empty_corpus():
    report = scan(Corpus(label="none"), builtin_signatures(), CONSISTENT_0)
    assert report.detections == []
    assert report.average_ms is None
    assert report.total_ms == 0
    assert report.contract_count == 0


def test_scan_report_canonical_body_excludes_timing():
    corpus = make_corpus("victims", {"v": KILL_CONTRACT})
    first = scan(corpus, builtin_signatures(), CONSISTENT_30)
    second = scan(corpus, builtin_signatures(), CONSISTENT_30)
    assert isinstance(first, ScanReport)
    assert first.body_dict() == second.body_dict()
    assert "per_contract_ms" not in json.dumps(first.body_dict())
    assert "per_contract_ms" in first.to_json()
    assert "wall_ms" not in json.dumps(first.body_dict())
    timing = first.to_dict()["timing"]
    assert timing["wall_ms"] >= timing["cross_classes_ms"]
    assert timing["wall_ms"] >= timing["total_ms"]
    assert first.config["corpus"] == "victims"
    assert first.config["signature_count"] == 12
    assert first.config["mode"] == "consistent"
    assert first.config["max_difference"] == "3/10"


@pytest.fixture(params=multiprocessing.get_all_start_methods())
def start_method(request, monkeypatch):
    """Worker pools start their processes this way for the test; two CPUs,
    whatever the host's, so that --jobs 2 starts a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(default, force=True)


def test_scan_parallel_matches_serial(start_method):
    sources = {
        f"c{i}": wrap(
            f"    function kill(address bad{i}) external {{ suicide(bad{i}); }}\n"
            f"    function other{i}(uint a) public {{ b{i} = a + {i}; }}"
        )
        for i in range(4)
    }
    corpus = make_corpus("par", sources)
    serial = scan(corpus, builtin_signatures(), CONSISTENT_30, jobs=1)
    parallel = scan(corpus, builtin_signatures(), CONSISTENT_30, jobs=2)
    assert serial.body_dict() == parallel.body_dict()
    # every kill is one sequence, decided once against all signatures in each worker
    assert len(parallel.detections) == 8


@pytest.mark.parametrize(
    "contracts,cpus,pools",
    [(2, 8, [(2, 1)]), (40, 2, [(2, 5)]), (3, 1, []), (3, None, []), (40, (8, 2), [(2, 5)])],
)
def test_scan_jobs_starts_no_more_workers_than_contracts_or_cpus(contracts, cpus, pools, monkeypatch):
    """--jobs 6 is a cap: the pool gets min(jobs, contracts, CPUs) workers,
    chunks sized for them, and none when that is one.

    cpus is the host's count and the process's affinity set alike, or
    (host, affinity) where they differ, as in a cpuset-limited container:
    the affinity set counts. None is a platform with neither count.
    """
    import concurrent.futures

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            self.spied = [max_workers]
            started.append(self.spied)
            # Never more than 2 real workers, whatever the code under test asks.
            super().__init__(min(max_workers, 2), **kwargs)

        def map(self, fn, *iterables, chunksize=1):
            self.spied.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    host, affinity = cpus if isinstance(cpus, tuple) else (cpus, cpus)
    monkeypatch.setattr(os, "cpu_count", lambda: host)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    sources = {
        f"c{i:02d}": wrap(f"    function kill(address bad{i}) external {{ suicide(bad{i}); }}")
        for i in range(contracts)
    }
    corpus = make_corpus("cap", sources)
    serial = scan(corpus, builtin_signatures(), CONSISTENT_30, jobs=1)
    parallel = scan(corpus, builtin_signatures(), CONSISTENT_30, jobs=6)
    assert [tuple(s) for s in started] == pools
    assert parallel.body_dict() == serial.body_dict()


# Six contracts over two sequences: every kill and every tally is the same
# sequence under consistent renaming, whatever its identifiers.
REPEATING_SOURCES = {
    f"r{i}": wrap(
        f"    function kill(address bad{i}) external {{\n        suicide(bad{i});\n    }}\n"
        f"    function tally(uint a{i}) public {{\n        sum{i} += a{i};\n    }}"
    )
    for i in range(6)
}


def test_scan_decides_each_sequence_once_per_signature(monkeypatch):
    # Every extracted function has at least three lines; under min_lines 4
    # the one-line ping, repeated in every contract, is outside the window.
    cfg = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(30, 100), min_lines=4)
    ping = "    function ping() public { }\n"
    sources = {cid: src.replace("{\n", "{\n" + ping, 1) for cid, src in REPEATING_SOURCES.items()}
    corpus = make_corpus("rep", sources)
    sigs = builtin_signatures()
    asked, calls = [], []
    querying = False

    def query(lines, exemplars, cfg):
        nonlocal querying
        asked.append(lines)
        querying = True
        try:
            return match_exemplars(lines, exemplars, cfg)
        finally:
            querying = False

    def counting(lines, exemplar_lines, cfg):
        # Only the exemplar query counts, not the cross-class phase's
        # decisions. Two signatures may share an exemplar sequence; each
        # holds its own tuple.
        if querying:
            calls.append((lines, id(exemplar_lines)))
        return clone_lcs(lines, exemplar_lines, cfg)

    monkeypatch.setattr(detector_mod, "match_exemplars", query)
    monkeypatch.setattr(clone_engine_mod, "clone_lcs", counting)
    report = scan(corpus, sigs, cfg)
    assert len(asked) == len(set(asked)) == 3
    (short,) = [lines for lines in asked if len(lines) < cfg.min_lines]
    assert short[0] == "function ping ( ) public"
    assert all(lines != short for lines, _ in calls)
    assert len(calls) == len(set(calls)) == 2 * len(sigs)
    assert report.per_type_instances["DOS"] == 6
    assert len(report.detections) == 12  # six kills x two DOS signatures


@pytest.mark.parametrize("configs", [[BLIND_0, CONSISTENT_30], [BLIND_0, BLIND_30]])
def test_evolution_matches_one_run_per_config(configs):
    """The configs of one run share a normalization memo; each gives its cells alone."""
    sources = dict(REPEATING_SOURCES)
    sources.update(EVOLUTION_SOURCES)
    buckets = sort_by_version(make_corpus("evo", sources))
    sigs = builtin_signatures()
    together = analyze_evolution(buckets, sigs, configs)
    apart = [analyze_evolution(buckets, sigs, [cfg]) for cfg in configs]
    assert together.cells == [cell for report in apart for cell in report.cells]
    assert together.cross_bucket_classes == [c for r in apart for c in r.cross_bucket_classes]
    detections = {
        (c["mode"], c["threshold_percent"], c["bucket"], c["vuln_type"]): c["detections"]
        for c in together.cells
    }
    for cfg in configs:
        pct = int(cfg.max_difference * 100)
        for bucket, corpus in buckets.items():
            report = scan(corpus, sigs, cfg)
            for name in report.per_type_instances:
                want = sum(1 for d in report.detections if d.vuln_type.name == name)
                assert detections[(cfg.mode.value, pct, bucket, name)] == want


def test_scan_timing_reports_the_cross_class_phase():
    report = scan(make_corpus("victims", {"v": KILL_CONTRACT}), builtin_signatures(), CONSISTENT_30)
    assert report.cross_classes_ms > 0
    assert json.loads(report.to_json())["timing"]["cross_classes_ms"] == report.cross_classes_ms
    assert "cross_classes_ms" not in json.dumps(report.body_dict())


def test_scan_classes_require_signature_and_target():
    # A corpus with no hits: exemplar-only clusters must not surface.
    corpus = make_corpus("quiet", {"q": wrap("    function calc(uint a) public { t = a * 2; }")})
    report = scan(corpus, builtin_signatures(), CONSISTENT_30)
    assert report.detections == []
    assert report.classes == []


def test_scan_classes_group_signature_with_targets():
    corpus = make_corpus("victims", {"v": KILL_CONTRACT})
    report = scan(corpus, builtin_signatures(), CONSISTENT_30)
    (cls,) = report.classes
    assert cls["vuln_types"] == ["DOS"]
    members = {m["contract_id"] for m in cls["members"]}
    assert members == {"builtin:dos-open-suicide", "builtin:dos-open-selfdestruct", "v"}
    sims = {m["contract_id"]: m["similarity_to_exemplar"] for m in cls["members"]}
    assert sims["v"] in (1.0, 0.75)


# Five normalized lines, a near miss of the two four-line open-initializer exemplars.
INITIALIZE_CONTRACT = wrap(
    "    function initialize() public {\n"
    "        new_owner = msg.sender;\n"
    "        started = true;\n"
    "    }"
)


def _window_config(min_lines: int) -> CloneConfig:
    return CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(30, 100), min_lines=min_lines)


@pytest.mark.parametrize("min_lines,detected", [(3, 2), (4, 2), (5, 0)])
def test_every_detection_sits_in_a_class_of_its_type(min_lines, detected):
    """The line window covers signature exemplars in both phases: an exemplar
    outside it matches nothing, as it joins no class."""
    report = scan(make_corpus("init", {"i": INITIALIZE_CONTRACT}), builtin_signatures(), _window_config(min_lines))
    assert len(report.detections) == detected
    for d in report.detections:
        target = (d.target.contract_id, d.target.name, d.target.start_line, d.target.end_line)
        assert any(
            d.vuln_type.name in cls["vuln_types"]
            and target in {(m["contract_id"], m["name"], m["start_line"], m["end_line"]) for m in cls["members"]}
            for cls in report.classes
        ), d


@pytest.mark.parametrize("min_lines", [4, 5])
def test_every_evolution_cell_with_detections_counts_a_class(min_lines):
    sources = dict(EVOLUTION_SOURCES, init=INITIALIZE_CONTRACT)
    report = analyze_evolution(
        sort_by_version(make_corpus("evo", sources)), builtin_signatures(), [_window_config(min_lines)]
    )
    assert any(c["detections"] for c in report.cells) == (min_lines == 4)
    for cell in report.cells:
        assert cell["class_count"] or not cell["detections"], cell


def test_write_catalog_csv(tmp_path):
    corpus = make_corpus("victims", {"v": KILL_CONTRACT})
    report = scan(corpus, builtin_signatures(), CONSISTENT_30)
    out = tmp_path / "catalog.csv"
    write_catalog_csv(report, corpus, out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [
        "contract_id", "vuln_type", "sig_id", "function", "lines", "similarity", "solidity_bucket",
    ]
    assert len(rows) == 3
    by_sig = {r[2]: r for r in rows[1:]}
    assert by_sig["dos-open-suicide"] == [
        "v", "DOS", "dos-open-suicide", "kill", "3-5", "1.0000", "^0.4",
    ]
    assert by_sig["dos-open-selfdestruct"][5] == "0.7500"


EVOLUTION_SOURCES = {
    "old": wrap("    function greet() public { hello = 1; }", pragma="pragma solidity ^0.3.6;"),
    "mid": wrap(
        "    function kill(address bad) external { suicide(bad); }",
        pragma="pragma solidity ^0.4.10;",
    ),
    "mid2": wrap(
        "    function kill(address worse) external { suicide(worse); }",
        pragma="pragma solidity ^0.4.21;",
    ),
}


def test_analyze_evolution_cells_and_na():
    buckets = sort_by_version(make_corpus("evo", EVOLUTION_SOURCES))
    assert list(buckets) == ["^0.3", "^0.4"]
    report = analyze_evolution(buckets, builtin_signatures(), [CONSISTENT_30])
    assert isinstance(report, EvolutionReport)
    empty = evolution_cell(report, "consistent", "^0.3", "REENTRANCY")
    assert empty["class_count"] == 0 and empty["min_similarity"] is None
    hit = evolution_cell(report, "consistent", "^0.4", "DOS")
    assert hit["class_count"] == 1
    assert hit["min_similarity"] == 0.75
    assert hit["detections"] == 4  # two kills x two DOS signatures
    assert report.configs[0]["threshold_percent"] == 30


def test_evolution_csv_renders_na(tmp_path):
    buckets = sort_by_version(make_corpus("evo", EVOLUTION_SOURCES))
    report = analyze_evolution(buckets, builtin_signatures(), [CONSISTENT_30])
    out = tmp_path / "evolution.csv"
    report.to_csv(out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [
        "mode", "threshold_percent", "vuln_type", "bucket", "class_count", "min_similarity_percent",
    ]
    table = {(r[2], r[3]): (r[4], r[5]) for r in rows[1:]}
    assert table[("REENTRANCY", "^0.3")] == ("NA", "NA")
    assert table[("DOS", "^0.4")] == ("1", "75")


def test_evolution_flags_cross_bucket_classes():
    sources = dict(EVOLUTION_SOURCES)
    sources["old"] = wrap(
        "    function kill(address ancient) external { suicide(ancient); }",
        pragma="pragma solidity ^0.3.6;",
    )
    buckets = sort_by_version(make_corpus("evo", sources))
    report = analyze_evolution(buckets, builtin_signatures(), [CONSISTENT_30])
    assert report.cross_bucket_classes
    flagged = report.cross_bucket_classes[0]
    assert flagged["buckets"] == ["^0.3", "^0.4"]
    assert flagged["mode"] == "consistent"


def test_evolution_builds_no_class_rows(monkeypatch):
    """evolve counts and buckets clone classes without serializing them:
    no class_row, and no similarity to an exemplar for any member."""
    sources = dict(EVOLUTION_SOURCES, **REPEATING_SOURCES)
    sources["old"] = wrap(
        "    function kill(address ancient) external { suicide(ancient); }",
        pragma="pragma solidity ^0.3.6;",
    )
    corpus = make_corpus("evo", sources)
    buckets = sort_by_version(corpus)
    calls = {"class_row": 0, "similarity": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(detector_mod, "class_row", counted("class_row", detector_mod.class_row))
    monkeypatch.setattr(clone_engine_mod, "similarity", counted("similarity", clone_engine_mod.similarity))
    report = analyze_evolution(buckets, builtin_signatures(), [CONSISTENT_30, BLIND_0])
    assert calls == {"class_row": 0, "similarity": 0}
    assert len({c["bucket"] for c in report.cells if c["class_count"]}) > 1
    assert report.cross_bucket_classes
    # scan still writes its classes as rows, through the same two functions
    assert scan(corpus, builtin_signatures(), CONSISTENT_30).classes
    assert calls["class_row"] and calls["similarity"]


def test_cross_class_node_is_a_ref_with_a_role():
    ref = FragmentRef("c.sol", 3, 7, "f")
    sig, target = _Node(**vars(ref), role="signature"), _Node(**vars(ref), role="target")
    assert isinstance(sig, FragmentRef) and sig.uid == target.uid == ref.uid
    assert sig != ref and target != ref and sig != target
    earlier = _Node(**vars(FragmentRef("b.sol", 9, 9, "g")), role="target")
    assert sorted([target, sig, earlier]) == [earlier, sig, target]


def _normalize_cli(corpus, sigs, tmp_path):
    for contract in corpus:
        (tmp_path / contract.id).write_text(contract.source_text, encoding="utf-8")
    assert main(["normalize", "--in", str(tmp_path), "--mode", "blind", "--out", str(tmp_path / "out.txt")]) == 0


# Each corpus command on every contract; an evolve sweep runs each of its
# configs as a cell.
_CORPUS_COMMANDS = {
    "scan": lambda corpus, sigs, tmp_path: scan(corpus, sigs, CONSISTENT_30),
    "evolve-2": lambda corpus, sigs, tmp_path: analyze_evolution(
        sort_by_version(corpus), sigs, [CONSISTENT_0, CONSISTENT_30]
    ),
    "evolve-4": lambda corpus, sigs, tmp_path: analyze_evolution(
        sort_by_version(corpus), sigs, [BLIND_0, CONSISTENT_30, CONSISTENT_0, BLIND_30]
    ),
    "clones-cold": lambda corpus, sigs, tmp_path: incremental_sequences(
        AnalysisCache.empty(CONSISTENT_30), corpus, CONSISTENT_30
    ),
    "derive": lambda corpus, sigs, tmp_path: derive_signatures(
        corpus, {c.id: VulnerabilityType.DOS for c in corpus}, CONSISTENT_30
    ),
    "cli-normalize": _normalize_cli,
}


@pytest.mark.parametrize("command", list(_CORPUS_COMMANDS))
def test_every_corpus_command_extracts_each_contract_once(command, tmp_path, monkeypatch):
    """Every command reads a contract through one NormalizationMemo.records call."""
    sources = {f"{cid}.sol": text for cid, text in {**REPEATING_SOURCES, **EVOLUTION_SOURCES}.items()}
    corpus = make_corpus("once", sources)
    sigs = builtin_signatures()
    calls = []

    def counting(contract):
        calls.append(contract.id)
        return extract_functions(contract)

    monkeypatch.setattr(normalize_mod, "extract_functions", counting)
    _CORPUS_COMMANDS[command](corpus, sigs, tmp_path)
    assert sorted(calls) == sorted(sources)


@pytest.mark.parametrize(
    "configs",
    [[BLIND_0, CONSISTENT_30], [CONSISTENT_30, BLIND_30], [CONSISTENT_30, BLIND_0, CONSISTENT_0, BLIND_30]],
)
def test_evolution_parallel_matches_serial(configs, start_method):
    sources = dict(REPEATING_SOURCES)
    sources.update(EVOLUTION_SOURCES)
    buckets = sort_by_version(make_corpus("evo", sources))
    sigs = builtin_signatures()
    serial = analyze_evolution(buckets, sigs, configs, jobs=1)
    parallel = analyze_evolution(buckets, sigs, configs, jobs=2)
    assert parallel.to_dict() == serial.to_dict()


def test_evolution_starts_one_worker_pool_for_all_configs(monkeypatch):
    """The configs are cells of one sweep: one pool, whose workers keep their memo."""
    import concurrent.futures

    pools = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sources = dict(REPEATING_SOURCES)
    sources.update(EVOLUTION_SOURCES)
    buckets = sort_by_version(make_corpus("evo", sources))
    sigs = builtin_signatures()
    configs = [
        CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(pct, 100)) for pct in (0, 10, 20, 30)
    ]
    parallel = analyze_evolution(buckets, sigs, configs, jobs=2)
    assert len(pools) == 1
    assert parallel.to_dict() == analyze_evolution(buckets, sigs, configs, jobs=1).to_dict()
    assert len(pools) == 1


KILL_FUNCTION = "function kill(address evil) external {\n        suicide(evil);\n    }"


def test_each_distinct_fragment_text_is_pretty_printed_once_per_run(monkeypatch):
    corpus = make_corpus(
        "copies",
        {f"k{i}": wrap(f"    {KILL_FUNCTION}\n    function own{i}() public {{ owner = {i}; }}") for i in range(5)},
    )
    sigs = builtin_signatures()
    printed = []

    def counting(fragment):
        printed.append(fragment.exact_text)
        return pretty_print(fragment)

    monkeypatch.setattr(normalize_mod, "pretty_print", counting)
    runs = [
        lambda: scan(corpus, sigs, CONSISTENT_30),
        lambda: analyze_evolution(sort_by_version(corpus), sigs, [BLIND_0, CONSISTENT_30]),
        lambda: derive_signatures(corpus, {c.id: VulnerabilityType.DOS for c in corpus}, CONSISTENT_30),
    ]
    for run in runs:
        printed.clear()
        run()
        assert printed.count(KILL_FUNCTION) == 1
        assert len(printed) == len(set(printed)) == 6


def test_derive_renames_each_distinct_fragment_text_once(monkeypatch):
    corpus = make_corpus(
        "copies",
        {f"k{i}": wrap(f"    {KILL_FUNCTION}\n    function own{i}() public {{ owner = {i}; }}") for i in range(5)},
    )
    renamed = []

    def counting(nf, mode):
        renamed.append((nf.lines, mode))
        return in_mode(nf, mode)

    monkeypatch.setattr(normalize_mod, "in_mode", counting)
    derive_signatures(corpus, {c.id: VulnerabilityType.DOS for c in corpus}, CONSISTENT_30)
    assert len(renamed) == len(set(renamed)) == 6
    assert {mode for _, mode in renamed} == {RenamingMode.CONSISTENT}


def test_each_command_stores_only_the_modes_it_reads(monkeypatch):
    corpus = make_corpus(
        "copies",
        {f"k{i}": wrap(f"    {KILL_FUNCTION}\n    function own{i}() public {{ owner = {i}; }}") for i in range(3)},
    )
    sigs = builtin_signatures()
    memos = []
    real_lines = normalize_mod.NormalizationMemo.lines

    def recording(memo, fragment):
        memos.append(memo)
        return real_lines(memo, fragment)

    monkeypatch.setattr(normalize_mod.NormalizationMemo, "lines", recording)
    runs = [
        (lambda: scan(corpus, sigs, CONSISTENT_30), {"consistent"}),
        (lambda: incremental_sequences(AnalysisCache.empty(CONSISTENT_30), corpus, CONSISTENT_30), {"consistent"}),
        (lambda: analyze_evolution(sort_by_version(corpus), sigs, [BLIND_0, CONSISTENT_30]), {"blind", "consistent"}),
        (lambda: derive_signatures(corpus, {c.id: VulnerabilityType.DOS for c in corpus}, CONSISTENT_30),
         {"none", "consistent"}),
    ]
    for run, modes in runs:
        memos.clear()
        run()
        assert memos
        assert {mode.value for memo in memos for mode in memo.modes} == modes
        assert {len(lines) for memo in memos for lines in memo.table.values()} == {len(modes)}


def test_detection_to_dict_shape():
    corpus = make_corpus("victims", {"v": KILL_CONTRACT})
    report = scan(corpus, builtin_signatures(), CONSISTENT_0)
    d = report.detections[0].to_dict()
    assert d == {
        "sig_id": "dos-open-suicide",
        "vuln_type": "DOS",
        "contract_id": "v",
        "function": "kill",
        "start_line": d["start_line"],
        "end_line": d["end_line"],
        "similarity": 1.0,
    }
    assert re.fullmatch(r"\d+", str(d["start_line"]))


# One text in several contracts, one body under two names (one of them X1,
# the name consistent renaming's placeholders step around), one name over
# two bodies, and one body as a modifier and as a function. A min_lines of
# 5 puts every kill (4 lines) and ping (3) outside the window, and keeps
# the guards (5) inside.
GUARD_BODY = "{\n        require(msg.sender == owner);\n        _;\n    }"
DECIDING_SOURCES = {
    **{
        f"same{i}": wrap(f"    {KILL_FUNCTION}\n    function ping() public {{ }}", pragma=pragma)
        for i, pragma in enumerate(["pragma solidity ^0.4.10;", "pragma solidity ^0.4.21;", None])
    },
    "names": wrap(
        "    function X1(address evil) external {\n        suicide(evil);\n    }\n"
        "    function X2(address evil) external {\n        suicide(evil);\n    }\n"
        "    function kill(uint a) public {\n        sum += a;\n    }",
        pragma="pragma solidity ^0.5.0;",
    ),
    "roles": wrap(
        f"    modifier onlyOwner {GUARD_BODY}\n"
        f"    function onlyOwner() public {GUARD_BODY}\n"
        "    function kill(address worse) external { suicide(worse); }",
        pragma="pragma solidity ^0.5.0;",
    ),
}


def _deciding_by_fragment(corpus, sigs, cfg):
    """Detections of a scan that normalizes every fragment and matches it alone."""
    exemplars = [in_mode(s.exemplar, cfg.mode).lines for s in sigs]
    found = []
    for contract in corpus:
        for fragment in extract_functions(contract):
            lines = in_mode(pretty_print(fragment), cfg.mode).lines
            for k, sim in match_exemplars(lines, exemplars, cfg):
                found.append((fragment.ref, sigs.signatures[k], sim))
    found.sort(key=lambda f: (f[0], f[1].sig_id))
    return [
        Detection(sig_id=sig.sig_id, vuln_type=sig.vuln_type, target=ref, similarity=sim)
        for ref, sig, sim in found
    ]


@pytest.mark.parametrize("min_lines", [1, 5])
@pytest.mark.parametrize("cfg", [BLIND_0, BLIND_30, CONSISTENT_0, CONSISTENT_30])
def test_decision_table_equals_deciding_each_fragment(cfg, min_lines):
    cfg = CloneConfig(mode=cfg.mode, max_difference=cfg.max_difference, min_lines=min_lines)
    corpus = make_corpus("deciding", DECIDING_SOURCES)
    guard = norm(f"modifier onlyOwner {GUARD_BODY}", cid="guard.sol")
    sigs = SignatureSet(
        signatures=[
            *builtin_signatures(),
            VulnSignature("guard", VulnerabilityType.WEAK_MODIFIERS, guard),
            VulnSignature("x1-kill", VulnerabilityType.DOS, norm(f"    {KILL_FUNCTION}".replace("kill", "X1"))),
        ]
    )
    want = _deciding_by_fragment(corpus, sigs, cfg)
    assert {d.target.name for d in want} >= {"<modifier:onlyOwner>"} | ({"kill"} if min_lines == 1 else set())
    for jobs in (1, 2):
        assert scan(corpus, sigs, cfg, jobs=jobs).detections == want

    buckets = sort_by_version(corpus)
    cells = analyze_evolution(buckets, sigs, [cfg]).cells
    for bucket, part in buckets.items():
        dets = _deciding_by_fragment(part, sigs, cfg)
        for name in (t.name for t in VulnerabilityType):
            sims = [d.similarity for d in dets if d.vuln_type.name == name]
            (cell,) = [c for c in cells if c["bucket"] == bucket and c["vuln_type"] == name]
            assert (cell["detections"], cell["min_similarity"]) == (len(sims), min(sims, default=None))


def test_a_signature_scanned_as_a_target_forms_a_class(tmp_path):
    """Derived signatures scanned as a corpus: every exemplar detects its
    own file, and exemplar and target are two members of one class even
    though they share a ref (the case that gave 4 detections and 0 classes
    on the benchmark's seed-1 labeled corpus)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    lab = gen.labeled_corpus(1, pure=4, mixed=2, family_size=8)
    labeled = tmp_path / "labeled"
    labeled.mkdir()
    for name, text in lab.corpus.files.items():
        (labeled / name).write_text(text)
    (tmp_path / "labels.csv").write_text(gen.labels_csv(lab.labels))
    sigs, out = tmp_path / "sigs", tmp_path / "scan.json"
    assert main(["derive", "--in", str(labeled), "--labels", str(tmp_path / "labels.csv"),
                 "--mode", "consistent", "--threshold", "30", "--out", str(sigs)]) == 0
    assert main(["scan", "--in", str(sigs), "--sigs", str(sigs), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["detections"]) == 4
    assert len(doc["classes"]) == 4
    for cls in doc["classes"]:
        exemplar, target = cls["members"]
        assert exemplar == target and exemplar["similarity_to_exemplar"] == 1.0


def test_evolution_does_not_bucket_an_exemplar_by_its_contract_id():
    """An exemplar whose contract id is also a corpus contract's (signatures
    derived from an earlier snapshot) is no member of that contract's bucket."""
    sources = {
        "a": wrap("    function greet() public { hello = 1; }", pragma="pragma solidity ^0.5.0;"),
        "z": wrap("    function kill(address bad) external { suicide(bad); }"),
    }
    exemplar = norm("function kill(address evil) external { suicide(evil); }", cid="a")
    sigs = SignatureSet(signatures=[VulnSignature("dos-a", VulnerabilityType.DOS, exemplar)])
    buckets = sort_by_version(make_corpus("evo", sources))
    report = analyze_evolution(buckets, sigs, [CONSISTENT_30])
    assert evolution_cell(report, "consistent", "^0.4", "DOS")["class_count"] == 1
    assert report.cross_bucket_classes == []
