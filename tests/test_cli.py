"""End-to-end command-line behavior and exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_contract, wrap

import volcano.cache as cache_mod
import volcano.cli as cli_mod
import volcano.clone_engine as clone_engine_mod
import volcano.corpus as corpus_mod
import volcano.signatures as signatures_mod
from volcano.cli import build_parser, clone_report_dict, emit_timing, main
from volcano.errors import NotVerified

ADDR_A = "0x" + "aa" * 20
ADDR_B = "0x" + "bb" * 20

KILL = wrap("    function kill(address evil) external {\n        suicide(evil);\n    }")
SAFE = wrap("    function tally(uint a) public {\n        sum += a;\n    }")
KILL_06 = wrap(
    "    function kill(address bad) external {\n        selfdestruct(bad);\n    }",
    pragma="pragma solidity ^0.6.2;",
)


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "kill.sol").write_text(KILL)
    (root / "safe.sol").write_text(SAFE)
    (root / "kill06.sol").write_text(KILL_06)
    return root


def test_scan_json_exit_zero_and_deterministic(corpus_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--out", str(out)]
    assert main(argv) == 0
    assert "analysis time:" in capsys.readouterr().err
    first = json.loads(out.read_text())
    assert main(argv) == 0
    second = json.loads(out.read_text())
    del first["timing"], second["timing"]
    assert first == second
    sig_ids = {d["sig_id"] for d in first["detections"]}
    assert {"dos-open-suicide", "dos-open-selfdestruct"} <= sig_ids
    assert first["config"]["run"]["command"] == "scan"
    assert first["config"]["run"]["threshold"] == 30


def test_scan_json_on_stdout_parses(corpus_dir, capsys):
    assert main(["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["detections"]


def test_a_corpus_given_as_dot_is_labeled_by_its_directory(corpus_dir, tmp_path, monkeypatch, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("contract_id,vuln_type\nkill.sol,DOS\nkill06.sol,DOS\nsafe.sol,DOS\n")
    monkeypatch.chdir(corpus_dir)
    assert main(["scan", "--in", ".", "--sigs", "builtin", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["corpus"] == "corpus"
    sig_dir = tmp_path / "sigs"
    assert main(["derive", "--in", ".", "--labels", str(labels), "--out", str(sig_dir)]) == 0
    manifest = json.loads((sig_dir / "manifest.json").read_text())
    assert manifest["provenance"].startswith("derived:corpus:mode=")


def test_scan_text_format(corpus_dir, capsys):
    assert main(["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "detections in 3 contracts" in out
    assert "DOS:" in out


def test_scan_csv_needs_out(corpus_dir, capsys):
    assert main(["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--format", "csv"]) == 2
    assert "--format csv needs --out" in capsys.readouterr().err


def test_scan_csv_without_out_is_a_usage_error_before_any_work(tmp_path, monkeypatch, capsys):
    import volcano.detector as detector_mod

    monkeypatch.setattr(detector_mod, "scan", lambda *a, **k: pytest.fail("scan ran"))
    argv = ["scan", "--in", str(tmp_path / "missing"), "--sigs", "builtin", "--format", "csv"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --format csv needs --out\n"


def test_scan_out_in_a_missing_directory_exits_one(corpus_dir, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("error:") == 1
    assert "Traceback" not in err and not out.exists()


def test_scan_csv_writes_catalog(corpus_dir, tmp_path):
    out = tmp_path / "catalog.csv"
    assert main(
        ["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("contract_id,")
    assert any("kill06.sol" in line and "^0.6" in line for line in lines[1:])


def test_threshold_out_of_range_exits_two(corpus_dir):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--threshold", "45"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", [["--threshold", "abc"], ["--threshold", "1.5"], ["--min-lines", "0"]])
def test_bad_clone_flag_value_exits_two(flag, corpus_dir):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--in", str(corpus_dir), "--sigs", "builtin", *flag])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["scan", "clones", "derive"])
def test_max_lines_below_min_lines_exits_two(command, corpus_dir, tmp_path, capsys):
    extra = {
        "scan": ["--sigs", "builtin"],
        "clones": ["--no-cache"],
        "derive": ["--labels", str(tmp_path / "labels.csv"), "--out", str(tmp_path / "sigs")],
    }[command]
    argv = [command, "--in", str(corpus_dir), "--min-lines", "5", "--max-lines", "3", *extra]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "error: max_lines must be >= min_lines" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["clones", "derive"])
def test_jobs_only_on_commands_that_use_it(command, corpus_dir, tmp_path):
    extra = ["--labels", "l.csv", "--out", str(tmp_path / "o")] if command == "derive" else []
    with pytest.raises(SystemExit) as err:
        main([command, "--in", str(corpus_dir), "--jobs", "2", *extra])
    assert err.value.code == 2
    scan_args = build_parser().parse_args(["scan", "--in", "/x", "--sigs", "builtin", "--jobs", "2"])
    evolve_args = build_parser().parse_args(["evolve", "--in", "/x", "--sigs", "b", "--out", "o", "--jobs", "2"])
    assert scan_args.jobs == evolve_args.jobs == 2


def test_malformed_signature_manifest_exits_one(corpus_dir, tmp_path, capsys):
    sig_dir = tmp_path / "sigs"
    sig_dir.mkdir()
    (sig_dir / "kill.sol").write_text(
        "// @volcano:vuln=DOS\nfunction kill(address a) external {\n    suicide(a);\n}\n"
    )
    manifest = sig_dir / "manifest.json"
    for text in ["{ not json", '{"signatures": [{"sig_id": "kill"}]}']:
        manifest.write_text(text)
        for command in (["scan"], ["evolve", "--out", str(tmp_path / "e.csv")]):
            argv = [*command, "--in", str(corpus_dir), "--sigs", str(sig_dir)]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"error: {manifest}: not a signature manifest" in err
            assert "Traceback" not in err


@pytest.mark.parametrize(
    "manifest",
    [
        '{"signatures": [{"sig_id": ["kill"], "source_file": "kill.sol"}]}',
        # pay.sol has no entry, so its id is generated beside the int one.
        '{"signatures": [{"sig_id": 7, "source_file": "kill.sol"}]}',
        "[" * 200_000 + "]" * 200_000,
        '{"signatures": [{"sig_id": "x", "source_file": "kill.sol"}, {"sig_id": "x", "source_file": "pay.sol"}]}',
    ],
    ids=["list-sig-id", "int-sig-id", "deeply-nested", "duplicate-sig-id"],
)
def test_hostile_signature_manifest_exits_one(manifest, corpus_dir, tmp_path, capsys):
    sig_dir = tmp_path / "sigs"
    sig_dir.mkdir()
    (sig_dir / "kill.sol").write_text(
        "// @volcano:vuln=DOS\nfunction kill(address a) external {\n    suicide(a);\n}\n"
    )
    (sig_dir / "pay.sol").write_text(
        "// @volcano:vuln=REENTRANCY\nfunction pay(address a) external {\n    a.call.value(1)();\n    paid = 1;\n}\n"
    )
    (sig_dir / "manifest.json").write_text(manifest)
    assert main(["scan", "--in", str(corpus_dir), "--sigs", str(sig_dir)]) == 1
    err = capsys.readouterr().err
    assert f"error: {sig_dir / 'manifest.json'}: not a signature manifest" in err
    assert "Traceback" not in err


def test_missing_corpus_root_exits_one(tmp_path, capsys):
    assert main(["scan", "--in", str(tmp_path / "nope"), "--sigs", "builtin"]) == 1
    assert "error:" in capsys.readouterr().err


def test_fetch_success_and_partial_failure(tmp_path, monkeypatch, capsys):
    def fake_fetch(address, api_key, corpus_dir, base_url=None, rate_budget=None, **kw):
        if address == ADDR_B:
            raise NotVerified(f"no verified source for {address}")
        return make_contract(f"{address}.sol", KILL)

    monkeypatch.setattr(corpus_mod, "fetch_contract", fake_fetch)
    out = tmp_path / "fetched"
    assert main(["fetch", "--address", ADDR_A, "--out", str(out)]) == 0
    assert f"fetched {ADDR_A}.sol" in capsys.readouterr().out

    assert main(["fetch", "--address", ADDR_A, "--address", ADDR_B, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "1/2 contracts fetched" in captured.out


def test_fetch_malformed_address_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["fetch", "--address", "0x1234", "--out", str(tmp_path)])
    assert err.value.code == 2

    listing = tmp_path / "addresses.txt"
    listing.write_text("# comment\n0xnotanaddress\n")
    assert main(["fetch", "--addresses", str(listing), "--out", str(tmp_path)]) == 2
    assert "malformed address" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["0", "-1", "nan", "inf", "fast", "1e-12"])
def test_fetch_rate_must_be_positive(rate, tmp_path, monkeypatch, capsys):
    def fake_fetch(*args, **kw):
        raise AssertionError("no fetch may start under a bad --rate")

    monkeypatch.setattr(corpus_mod, "fetch_contract", fake_fetch)
    with pytest.raises(SystemExit) as err:
        main(["fetch", "--address", ADDR_A, "--out", str(tmp_path), "--rate", rate])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "error:" in stderr and "Traceback" not in stderr


def test_fetch_without_addresses_exits_two(tmp_path, capsys):
    assert main(["fetch", "--out", str(tmp_path)]) == 2
    assert "no addresses" in capsys.readouterr().err


def test_extract_count_and_dump(corpus_dir, capsys):
    assert main(["extract", "--in", str(corpus_dir)]) == 0
    assert "3 fragments in 3 contracts" in capsys.readouterr().out
    assert main(["extract", "--in", str(corpus_dir), "--dump"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in rows} == {"kill", "tally"}
    assert all(set(r) == {"contract_id", "name", "start_line", "end_line"} for r in rows)


def test_normalize_single_file(tmp_path, capsys):
    path = tmp_path / "one.sol"
    path.write_text(KILL)
    assert main(["normalize", "--in", str(path), "--mode", "consistent"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("-- one.sol:kill:")
    assert "[consistent]" in out
    assert "suicide ( X1 ) ;" in out


def test_non_utf8_inputs_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.sol"
    path.write_bytes(b"contract C { function f() public { x = 1; } }\xff\xfe")
    assert main(["normalize", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: input is not valid UTF-8")
    root = tmp_path / "labeled"
    root.mkdir()
    (root / "d1.sol").write_text(wrap("    function close(address t) public { selfdestruct(t); }"))
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"contract_id,vuln_type\nd1.sol,DOS\xff\n")
    assert main(["derive", "--in", str(root), "--labels", str(labels), "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err.startswith("error: input is not valid UTF-8")


def test_normalize_directory_blocks(corpus_dir, capsys):
    assert main(["normalize", "--in", str(corpus_dir), "--mode", "blind"]) == 0
    out = capsys.readouterr().out
    assert out.count("-- ") == 3
    assert "suicide ( X ) ;" in out


def test_clones_cache_lifecycle(corpus_dir, tmp_path, capsys):
    out = tmp_path / "clones.json"
    argv = ["clones", "--in", str(corpus_dir), "--mode", "blind", "--threshold", "25", "--out", str(out)]
    assert main(argv) == 0
    cache_file = corpus_dir / ".volcano-cache" / "analysis.json"
    assert cache_file.exists()
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    doc = json.loads(first)
    assert doc["run"]["command"] == "clones"
    assert "jobs" not in doc["run"]
    assert doc["config"]["mode"] == "blind"
    pair_ends = {(p["left"].split(":")[0], p["right"].split(":")[0]) for p in doc["pairs"]}
    assert ("kill.sol", "kill06.sol") in pair_ends

    # a different configuration must refuse the stale cache...
    assert main(["clones", "--in", str(corpus_dir), "--threshold", "20", "--out", str(out)]) == 1
    assert "volcano cache clear" in capsys.readouterr().err
    # ...until it is cleared
    assert main(["cache", "clear", "--in", str(corpus_dir)]) == 0
    assert not cache_file.exists()
    assert main(["clones", "--in", str(corpus_dir), "--threshold", "20", "--out", str(out)]) == 0


def test_clones_builds_the_fragment_index_once_cold_and_warm(corpus_dir, tmp_path, monkeypatch):
    real = cache_mod.fragment_index
    calls = []
    monkeypatch.setattr(cache_mod, "fragment_index", lambda *a: calls.append(1) or real(*a))
    argv = ["clones", "--in", str(corpus_dir), "--mode", "blind", "--threshold", "25", "--out", str(tmp_path / "c.json")]
    for run in ("cold", "warm"):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, run


def test_a_warm_clones_over_an_unchanged_corpus_builds_no_candidate_index(corpus_dir, tmp_path, monkeypatch):
    real = clone_engine_mod._tokens
    calls = []
    monkeypatch.setattr(clone_engine_mod, "_tokens", lambda lines: calls.append(1) or real(lines))
    out = tmp_path / "c.json"
    argv = ["clones", "--in", str(corpus_dir), "--mode", "blind", "--threshold", "25", "--out", str(out)]
    assert main(argv) == 0
    assert calls, "a cold run indexes its sequences"
    cold = json.loads(out.read_text())
    calls.clear()
    assert main(argv) == 0
    assert calls == []
    warm = json.loads(out.read_text())
    assert warm["pairs"] and warm == cold


def test_clones_dedupe_lists_no_pair_of_a_byte_identical_copy(corpus_dir, tmp_path):
    (corpus_dir / "kill_copy.sol").write_text(KILL)
    out = tmp_path / "clones.json"
    argv = ["clones", "--in", str(corpus_dir), "--threshold", "25", "--no-cache", "--out", str(out)]

    def pairs():
        return [(p["left"], p["right"]) for p in json.loads(out.read_text())["pairs"]]

    assert main(argv) == 0
    assert ("kill.sol:kill:3-5", "kill_copy.sol:kill:3-5") in pairs()
    assert main(argv + ["--dedupe"]) == 0
    assert pairs() == [("kill.sol:kill:3-5", "kill06.sol:kill:3-5")]


def test_clones_never_pairs_a_fragment_with_itself(tmp_path):
    # the nested Yul function shares its enclosing function's name and line,
    # so both fragments carry the same FragmentRef
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "A.sol").write_text(
        "pragma solidity ^0.5.0;\ncontract A {\n"
        "function f() public { assembly { function f(x) -> y { { } { } { } { } { } { } } } }\n}\n"
    )
    out = tmp_path / "clones.json"
    assert main(
        ["clones", "--in", str(root), "--mode", "blind", "--threshold", "30", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["pairs"] == [] and doc["classes"] == []


def test_clones_lists_a_pair_of_origins_once(tmp_path):
    # each file holds a function and a nested Yul function that share one
    # FragmentRef; the two origins still make exactly one pair
    root = tmp_path / "corpus"
    root.mkdir()
    for name in ("A", "B"):
        (root / f"{name}.sol").write_text(
            f"pragma solidity ^0.5.0;\ncontract {name} {{\n"
            "function f() public { assembly { function f(x) -> y { { } { } { } { } { } { } } } }\n}\n"
        )
    out = tmp_path / "clones.json"
    argv = ["clones", "--in", str(root), "--mode", "blind", "--threshold", "30", "--out", str(out)]
    for _ in range(2):  # cold, then from the cache
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert [(p["left"], p["right"]) for p in doc["pairs"]] == [("A.sol:f:3-3", "B.sol:f:3-3")]


def test_scan_lists_a_detection_of_an_origin_once(tmp_path):
    # each file holds a function and a nested Yul function that share one
    # FragmentRef; extraction keeps the last of them for every command
    root = tmp_path / "corpus"
    root.mkdir()
    for name in ("A", "B"):
        (root / f"{name}.sol").write_text(
            "contract C {\n"
            "function f() public { assembly { function f(x) -> y { { } { } { } { } { } { } } } }\n}\n"
        )
    sig = tmp_path / "sig.sol"
    sig.write_text("// @volcano:vuln=DOS\nfunction f(x) -> y { { } { } { } { } { } { } }\n")
    out = tmp_path / "scan.json"
    argv = ["scan", "--in", str(root), "--sigs", str(sig), "--mode", "blind", "--threshold", "30",
            "--min-lines", "1", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert [(d["contract_id"], d["similarity"]) for d in doc["detections"]] == [
        ("A.sol", 1.0), ("B.sol", 1.0),
    ]
    assert doc["per_type_instances"]["DOS"] == 2


def test_derive_classes_equal_clones_classes_under_a_shared_origin(tmp_path, capsys, monkeypatch):
    # A.sol's nested Yul function shares its enclosing function's name and
    # line; extraction keeps one fragment per origin, the nested one, so
    # derive sees the same fragments clones does
    root = tmp_path / "corpus"
    root.mkdir()
    for name, inner in (("A", "f"), ("B", "h")):
        (root / f"{name}.sol").write_text(
            f"pragma solidity ^0.5.0;\ncontract {name} {{\n"
            "function f() public { uint a = 1; uint b = 2; uint c = 3; "
            f"assembly {{ function {inner}(x) -> y {{ {{ }} {{ }} {{ }} {{ }} {{ }} {{ }} }} }} }}\n}}\n"
        )
    labels = tmp_path / "labels.csv"
    labels.write_text("contract_id,vuln_type\nA.sol,DOS\nB.sol,DOS\n")
    flags = ["--mode", "blind", "--threshold", "30", "--min-lines", "1"]

    assert main(["extract", "--in", str(root), "--dump"]) == 0
    rows = json.loads(capsys.readouterr().out)
    a_refs = [f"{r['name']}:{r['start_line']}-{r['end_line']}" for r in rows if r["contract_id"] == "A.sol"]
    assert a_refs == ["f:3-3"]

    out = tmp_path / "clones.json"
    assert main(["clones", "--in", str(root), "--no-cache", "--out", str(out), *flags]) == 0
    clones_classes = [
        [f"{m['contract_id']}:{m['name']}:{m['start_line']}-{m['end_line']}" for m in cls["members"]]
        for cls in json.loads(out.read_text())["classes"]
    ]
    assert clones_classes == [["A.sol:f:3-3", "B.sol:h:3-3"]]

    derived = []
    original = signatures_mod.clone_classes

    def recording_clone_classes(*args, **kwargs):
        derived[:] = original(*args, **kwargs)
        return derived

    monkeypatch.setattr(signatures_mod, "clone_classes", recording_clone_classes)
    argv = ["derive", "--in", str(root), "--labels", str(labels), "--out", str(tmp_path / "s"), *flags]
    assert main(argv) == 0
    assert [[m.uid for m in cls.members] for cls in derived] == clones_classes


def _drop_lines(record):
    del record[3]  # [name, start_line, end_line, seq] loses its sequence


def _point_before_the_table(record):
    record[3] = -1


@pytest.mark.parametrize("edit,warns", [(_drop_lines, True), (_point_before_the_table, True)])
def test_clones_over_misshapen_cache_records_equals_a_fresh_run(edit, warns, corpus_dir, tmp_path, caplog):
    argv = ["clones", "--in", str(corpus_dir), "--mode", "blind", "--threshold", "25"]
    fresh, cached = tmp_path / "fresh.json", tmp_path / "cached.json"
    assert main([*argv, "--out", str(fresh)]) == 0
    cache_file = corpus_dir / ".volcano-cache" / "analysis.json"
    blob = json.loads(cache_file.read_text())
    for records in blob["fragments"].values():
        for record in records:
            edit(record)
    cache_file.write_text(json.dumps(blob))
    with caplog.at_level("WARNING", logger="volcano.cache"):
        assert main([*argv, "--out", str(cached)]) == 0
    assert any("falling back to full analysis" in r.message for r in caplog.records) == warns
    fresh_doc, cached_doc = json.loads(fresh.read_text()), json.loads(cached.read_text())
    del fresh_doc["run"], cached_doc["run"]
    assert cached_doc == fresh_doc


@pytest.mark.parametrize("entry", [[0, 99, 2], [0, "1", 2]], ids=["out-of-range", "not-int"])
def test_clones_over_a_cached_pair_of_unknown_sequences_equals_a_fresh_run(entry, corpus_dir, tmp_path, caplog):
    argv = ["clones", "--in", str(corpus_dir), "--mode", "blind", "--threshold", "25"]
    fresh, cached = tmp_path / "fresh.json", tmp_path / "cached.json"
    assert main([*argv, "--out", str(fresh)]) == 0
    cache_file = corpus_dir / ".volcano-cache" / "analysis.json"
    blob = json.loads(cache_file.read_text())
    blob["clones"].append(entry)
    cache_file.write_text(json.dumps(blob))
    with caplog.at_level("WARNING", logger="volcano.cache"):
        assert main([*argv, "--out", str(cached)]) == 0
    assert any("falling back to full analysis" in r.message for r in caplog.records)
    fresh_doc, cached_doc = json.loads(fresh.read_text()), json.loads(cached.read_text())
    del fresh_doc["run"], cached_doc["run"]
    assert cached_doc == fresh_doc


def test_clones_over_a_deeply_nested_cache_equals_a_no_cache_run(corpus_dir, tmp_path, caplog):
    argv = ["clones", "--in", str(corpus_dir), "--mode", "blind", "--threshold", "25"]
    fresh, cached = tmp_path / "fresh.json", tmp_path / "cached.json"
    assert main([*argv, "--no-cache", "--out", str(fresh)]) == 0
    cache_file = corpus_dir / ".volcano-cache" / "analysis.json"
    cache_file.parent.mkdir()
    cache_file.write_text("[" * 200_000 + "]" * 200_000)
    with caplog.at_level("WARNING", logger="volcano.cache"):
        assert main([*argv, "--out", str(cached)]) == 0
    assert any("falling back to full analysis" in r.message for r in caplog.records)
    fresh_doc, cached_doc = json.loads(fresh.read_text()), json.loads(cached.read_text())
    del fresh_doc["run"], cached_doc["run"]
    assert cached_doc == fresh_doc


def test_clones_no_cache_leaves_no_state(corpus_dir, tmp_path):
    out = tmp_path / "clones.json"
    assert main(["clones", "--in", str(corpus_dir), "--no-cache", "--out", str(out)]) == 0
    assert not (corpus_dir / ".volcano-cache").exists()


_BODIES = [
    ["if (ledger >= amount)", "    to.send(amount);", "ledger -= amount;"],
    ["if (ledger >= amount)", "    to.send(amount);", "ledger -= amount;", "ledger -= 1;"],
    ["uint total = amount * 2;", "ledger += total;", "emit Paid(to, total);"],
    ["require(msg.sender == owner);", "selfdestruct(to);", "owner = address(0);", "ledger = 0;"],
]
# File names that hold what a JSON string or a report row is made of.
_FILE_NAMES = st.text(alphabet=st.sampled_from(['"', "\\", "}", "{", ",", " ", "a", "é"]), min_size=1, max_size=6)


def _source(functions) -> str:
    return wrap("\n".join(
        f"    function f{body // 2}(address to, uint amount) public {{\n"
        + "".join(f"        {line}\n" for line in _BODIES[body])
        + "    }"
        for body in functions
    ))


@settings(max_examples=25, deadline=None)
@given(
    files=st.dictionaries(_FILE_NAMES, st.lists(st.integers(0, len(_BODIES) - 1), min_size=1, max_size=3),
                          max_size=5),
    flags=st.sampled_from([["--mode", "blind", "--threshold", "0"], ["--mode", "blind", "--threshold", "10"],
                           ["--mode", "consistent", "--threshold", "30"]]),
)
@example(files={}, flags=["--mode", "blind", "--threshold", "0"])
@example(files={'"}, {\\': [2]}, flags=["--mode", "consistent", "--threshold", "30"])
@example(files={'"}, {\\': [0, 0], "}, {": [1]}, flags=["--mode", "consistent", "--threshold", "30"])
def test_streamed_clones_report_equals_the_indented_dump_of_clone_report_dict(files, flags):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        root.mkdir()
        for name, functions in files.items():
            (root / f"{name}.sol").write_text(_source(functions), encoding="utf-8")
        out = Path(tmp, "clones.json")
        assert main(["clones", "--in", str(root), *flags, "--no-cache", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        args = build_parser().parse_args(["clones", "--in", str(root), *flags])
        cfg = cli_mod._clone_config(args)
        pairs, classes, index = cache_mod.incremental_scan(
            cache_mod.AnalysisCache.empty(cfg), corpus_mod.load_corpus(root), cfg)
        doc = clone_report_dict(cfg, pairs, classes, index)
        doc["run"] = json.loads(text)["run"]
        assert text == json.dumps(doc, indent=2, sort_keys=True)


def test_clones_imports_neither_detector_nor_signatures(corpus_dir, tmp_path):
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from volcano.cli import main\n"
        "assert main(['clones', '--in', sys.argv[1], '--no-cache', '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in ('volcano.detector', 'volcano.signatures') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(corpus_dir), str(tmp_path / "clones.json")],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_package_exports_resolve_on_first_access():
    import volcano
    import volcano.detector

    assert len(set(volcano.__all__)) == len(volcano.__all__) == 36
    assert volcano.scan is volcano.detector.scan
    assert all(getattr(volcano, name) is not None for name in volcano.__all__)
    assert set(volcano.__all__) <= set(dir(volcano))
    with pytest.raises(AttributeError):
        volcano.no_such_name


def test_cache_clear_explicit_dir(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "analysis.json").write_text("{}")
    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert not (cache_dir / "analysis.json").exists()
    assert "cache cleared" in capsys.readouterr().out


def test_derive_then_scan_with_derived_set(tmp_path, capsys):
    root = tmp_path / "labeled"
    root.mkdir()
    (root / "d1.sol").write_text(wrap("    function close(address target) public { selfdestruct(target); }"))
    (root / "d2.sol").write_text(wrap("    function close(address sink) public { selfdestruct(sink); }"))
    labels = tmp_path / "labels.csv"
    labels.write_text("contract_id,vuln_type\nd1.sol,DOS\nd2.sol,DOS\n")
    sig_dir = tmp_path / "sigs"
    assert main(["derive", "--in", str(root), "--labels", str(labels), "--out", str(sig_dir)]) == 0
    assert "derived 1 signatures" in capsys.readouterr().out
    assert (sig_dir / "manifest.json").exists()
    assert (sig_dir / "review.json").exists()
    assert len(list(sig_dir.glob("*.sol"))) == 1

    report = tmp_path / "report.json"
    assert main(
        ["scan", "--in", str(root), "--sigs", str(sig_dir), "--threshold", "0", "--out", str(report)]
    ) == 0
    doc = json.loads(report.read_text())
    assert {d["contract_id"] for d in doc["detections"]} == {"d1.sol", "d2.sol"}
    assert all(d["vuln_type"] == "DOS" and d["similarity"] == 1.0 for d in doc["detections"])


def test_derive_unlabeled_exits_one(tmp_path, capsys):
    root = tmp_path / "labeled"
    root.mkdir()
    (root / "d1.sol").write_text(wrap("    function close(address t) public { selfdestruct(t); }"))
    labels = tmp_path / "labels.csv"
    labels.write_text("contract_id,vuln_type\nother.sol,DOS\n")
    assert main(["derive", "--in", str(root), "--labels", str(labels), "--out", str(tmp_path / "s")]) == 1
    assert "no label for d1.sol" in capsys.readouterr().err


def test_derive_one_column_label_row_exits_one(tmp_path, capsys):
    root = tmp_path / "labeled"
    root.mkdir()
    (root / "d1.sol").write_text(wrap("    function close(address t) public { selfdestruct(t); }"))
    labels = tmp_path / "labels.csv"
    labels.write_text("contract_id,vuln_type\nd1.sol\n")
    assert main(["derive", "--in", str(root), "--labels", str(labels), "--out", str(tmp_path / "s")]) == 1
    assert f"error: {labels}: row 2" in capsys.readouterr().err


def test_derive_oversized_label_field_exits_one(tmp_path, capsys):
    """A field over csv's 131,072-character limit used to end derive in a traceback."""
    root = tmp_path / "labeled"
    root.mkdir()
    (root / "d1.sol").write_text(wrap("    function close(address t) public { selfdestruct(t); }"))
    labels = tmp_path / "labels.csv"
    labels.write_text('contract_id,vuln_type\nd1.sol,"' + "x" * 131_073 + '"\n')
    assert main(["derive", "--in", str(root), "--labels", str(labels), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {labels}: row 2: field larger than field limit")
    assert len(err.splitlines()) == 1


def test_derive_refuses_a_contract_labeled_twice(corpus_dir, tmp_path, capsys):
    """The second row used to relabel the contract: derive at 30% exited 0
    with a mixed-label class and no signature."""
    labels = tmp_path / "labels.csv"
    labels.write_text("kill.sol,DOS\nkill06.sol,DOS\nsafe.sol,DOS\nkill.sol,REENTRANCY\n")
    argv = ["derive", "--in", str(corpus_dir), "--labels", str(labels), "--out", str(tmp_path / "s"),
            "--threshold", "30"]
    assert main(argv) == 1
    assert f"error: {labels}: 'kill.sol' is labeled DOS in row 1 and REENTRANCY in row 4" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    labels.write_text("kill.sol,DOS\nkill06.sol,DOS\nsafe.sol,DOS\nkill.sol,DOS\n")
    assert main(argv) == 0


def test_evolve_writes_csv_and_json(corpus_dir, tmp_path, capsys):
    out = tmp_path / "evolution.csv"
    json_out = tmp_path / "evolution.json"
    assert main(
        [
            "evolve", "--in", str(corpus_dir), "--sigs", "builtin",
            "--out", str(out), "--json-out", str(json_out),
        ]
    ) == 0
    assert "evolution table over 2 buckets" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,threshold_percent,vuln_type,bucket,class_count,min_similarity_percent"
    # two configs x two buckets x eight types
    assert len(lines) == 1 + 2 * 2 * 8
    assert any(line.endswith("NA,NA") for line in lines[1:])
    doc = json.loads(json_out.read_text())
    assert doc["buckets"] == ["^0.4", "^0.6"]
    assert doc["configs"][0]["mode"] == "blind"


def test_evolve_rejects_bad_config_string(corpus_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(
            ["evolve", "--in", str(corpus_dir), "--sigs", "builtin",
             "--out", str(tmp_path / "e.csv"), "--configs", "consistent:45"]
        )
    assert err.value.code == 2
    assert "bad --configs entry" in capsys.readouterr().err


@pytest.mark.parametrize("configs", ["blind:0,blind:0", "blind:,blind:0", "consistent:30,blind:0, consistent:30"])
def test_evolve_rejects_a_repeated_config_before_any_work(configs, tmp_path, capsys):
    """A repeated cell used to be scanned twice and written twice; the corpus
    path does not exist, so the exit code shows that nothing was loaded."""
    out = tmp_path / "e.csv"
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--in", str(tmp_path / "missing"), "--sigs", "builtin", "--out", str(out),
              "--configs", configs])
    assert err.value.code == 2
    assert "already listed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,calls_per_contract",
    [
        (["scan", "--sigs", "builtin", "--out", "{tmp}/r.json"], 0),
        (["scan", "--sigs", "builtin", "--format", "csv", "--out", "{tmp}/r.csv"], 1),
        (["clones", "--cache-dir", "{tmp}/cache"], 0),
        (["derive", "--labels", "{tmp}/labels.csv", "--out", "{tmp}/sigs"], 0),
        (["evolve", "--sigs", "builtin", "--out", "{tmp}/e.csv"], 1),
    ],
)
def test_pragmas_are_solved_only_where_a_version_is_read(
    argv, calls_per_contract, corpus_dir, tmp_path, monkeypatch
):
    (tmp_path / "labels.csv").write_text("kill.sol,DOS\nkill06.sol,DOS\nsafe.sol,DOS\n")
    solved = []
    real = corpus_mod.parse_pragma
    monkeypatch.setattr(corpus_mod, "parse_pragma", lambda text: solved.append(text) or real(text))
    argv = [argv[0], "--in", str(corpus_dir), *(a.format(tmp=tmp_path) for a in argv[1:])]
    assert main(argv) == 0
    assert sorted(solved) == sorted([KILL, SAFE, KILL_06] * calls_per_contract)


def test_loading_a_corpus_solves_no_pragma(corpus_dir, monkeypatch):
    monkeypatch.setattr(corpus_mod, "parse_pragma", lambda text: pytest.fail("pragma solved"))
    assert len(corpus_mod.load_corpus(corpus_dir)) == 3
    assert len(signatures_mod.builtin_signatures()) == 12


def test_emit_timing_frozen_strings():
    assert emit_timing([]) == "average NA, total 00:00:00"
    assert emit_timing([100.0] * 10) == "average 00:00:00 (100ms), total 00:00:01"
    assert emit_timing([90061000.0]) == "average 1 day, 01:01:01 (90061000ms), total 1 day, 01:01:01"
    assert emit_timing([249998000.0]).endswith("total 2 days, 21:26:38")


def test_scan_run_echo_holds_only_the_flags_of_scan(corpus_dir, tmp_path):
    out = tmp_path / "report.json"
    argv = ["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--mode", "blind", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["config"]["run"] == {
        "command": "scan",
        "in_path": str(corpus_dir),
        "dedupe": False,
        "mode": "blind",
        "threshold": 30,
        "min_lines": 3,
        "max_lines": None,
        "sigs": "builtin",
        "out": str(out),
        "format": "json",
        "jobs": 1,
    }


def test_parser_defaults_follow_subcommand():
    clones = build_parser().parse_args(["clones", "--in", "/x"])
    assert (clones.mode, clones.threshold) == ("blind", 0)
    scan_args = build_parser().parse_args(["scan", "--in", "/x", "--sigs", "builtin"])
    assert (scan_args.mode, scan_args.threshold) == ("consistent", 30)
    derive = build_parser().parse_args(
        ["derive", "--in", "/x", "--labels", "l.csv", "--out", "o"]
    )
    assert (derive.mode, derive.threshold) == ("consistent", 30)


# Three-line functions whose blind sequences all differ and match no
# builtin exemplar line for line: the size filter passes every pair of
# them, and each of them against the three-line exemplars.
_SAME_LENGTH = {
    f"{name}.sol": wrap(f"    function tally(uint a) public {{\n        sum {op}= a;\n    }}")
    for name, op in [("add", "+"), ("sub", "-"), ("mul", "*")]
}


@pytest.mark.parametrize(
    "argv",
    [
        ["clones", "--mode", "blind", "--threshold", "{pct}", "--no-cache"],
        ["evolve", "--sigs", "builtin", "--configs", "blind:{pct}", "--out", "{tmp}/e.csv"],
    ],
    ids=["clones", "evolve"],
)
def test_threshold_zero_runs_no_lcs(tmp_path, monkeypatch, argv):
    root = tmp_path / "corpus"
    root.mkdir()
    for name, text in _SAME_LENGTH.items():
        (root / name).write_text(text)
    real = clone_engine_mod.lcs_length
    calls = []
    monkeypatch.setattr(clone_engine_mod, "lcs_length", lambda a, b: calls.append(1) or real(a, b))
    for pct, want_calls in (("30", True), ("0", False)):
        calls.clear()
        run = [a.format(pct=pct, tmp=tmp_path) for a in argv] + ["--in", str(root)]
        assert main(run) == 0
        assert bool(calls) is want_calls, (pct, len(calls))


# Texts that made the pragma reader or the header walk quadratic, or made
# int() raise; the timeout fails a command that hangs instead of the suite.
_HOSTILE = {
    "digits.sol": f"pragma solidity ^0.{'9' * 5_000};\n" + KILL,
    "headers.sol": "function f(" * 36_400,
    "pragmas.sol": "pragma solidity x " * 20_000,
    "spaces.sol": "pragma solidity ^" + " " * 100_000 + "x;\n" + SAFE,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--dump", "--out", "{tmp}/fragments.json"],
        ["evolve", "--sigs", "builtin", "--out", "{tmp}/evolve.csv"],
        ["scan", "--sigs", "builtin", "--format", "csv", "--out", "{tmp}/catalog.csv"],
    ],
    ids=["extract", "evolve", "scan-csv"],
)
def test_the_cli_stays_total_on_a_hostile_corpus(argv, tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for name, text in _HOSTILE.items():
        (root / name).write_text(text)
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    run = [sys.executable, "-m", "volcano.cli", argv[0], "--in", str(root)]
    run += [a.format(tmp=tmp_path) for a in argv[1:]]
    out = subprocess.run(run, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    if argv[0] == "scan":
        rows = (tmp_path / "catalog.csv").read_text().splitlines()
        assert {row.split(",")[-1] for row in rows[1:] if row.startswith("digits.sol,")} == {"unknown"}


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_text_stdout_cannot_encode_is_an_error_not_a_traceback(out, tmp_path):
    """An ASCII stdout (a Windows console meets CJK text the same way) cannot
    print a non-ASCII string literal; --out writes it as UTF-8."""
    source = tmp_path / "a.sol"
    source.write_text(wrap('    function greet() public { note = "héllo"; }'), encoding="utf-8")
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    run = [sys.executable, "-m", "volcano.cli", "normalize", "--in", str(source)]
    if out:
        run += ["--out", str(tmp_path / "out.txt")]
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"}
    done = subprocess.run(run, env=env, capture_output=True, timeout=60)
    assert b"Traceback" not in done.stderr
    if out:
        assert done.returncode == 0, done.stderr
        assert 'note = "héllo" ;' in (tmp_path / "out.txt").read_text(encoding="utf-8")
    else:
        assert done.returncode == 1
        assert done.stderr.startswith(b"error: ") and b"use --out" in done.stderr
