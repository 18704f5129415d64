"""Signature scanning, reports, and evolution analysis."""
from __future__ import annotations

import csv
import re
from fractions import Fraction

import pytest

from conftest import make_corpus, wrap

import volcano.normalize as normalize_mod
from volcano.clone_engine import CloneConfig
from volcano.corpus import Corpus, sort_by_version
from volcano.detector import (
    EvolutionReport,
    ScanReport,
    analyze_evolution,
    count_instances,
    scan,
    write_catalog_csv,
)
from volcano.errors import EmptySignatureSet
from volcano.extractor import extract_functions
from volcano.normalize import RenamingMode
from volcano.signatures import SignatureSet, builtin_signatures

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
    assert count_instances(report) == report.per_type_instances


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
    assert first.canonical_json() == second.canonical_json()
    assert "per_contract_ms" not in first.canonical_json()
    assert "per_contract_ms" in first.to_json()
    assert first.config["corpus"] == "victims"
    assert first.config["signature_count"] == 12
    assert first.config["mode"] == "consistent"
    assert first.config["max_difference"] == "3/10"


def test_scan_parallel_matches_serial():
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
    assert serial.canonical_json() == parallel.canonical_json()


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
    empty = report.cell("consistent", "^0.3", "REENTRANCY")
    assert empty["class_count"] == 0 and empty["min_similarity"] is None
    hit = report.cell("consistent", "^0.4", "DOS")
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


def test_evolution_extracts_each_contract_once_per_config(monkeypatch):
    corpus = make_corpus("evo", EVOLUTION_SOURCES)
    sigs = builtin_signatures()
    calls = []

    def counting(contract):
        calls.append(contract.id)
        return extract_functions(contract)

    monkeypatch.setattr(normalize_mod, "extract_functions", counting)
    analyze_evolution(sort_by_version(corpus), sigs, [CONSISTENT_0, CONSISTENT_30])
    assert sorted(calls) == sorted([c.id for c in corpus] * 2)


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
