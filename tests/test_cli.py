"""End-to-end command-line behavior and exit codes."""
from __future__ import annotations

import json

import pytest

from conftest import make_contract, wrap

import volcano.corpus as corpus_mod
from volcano.cli import RunConfig, build_parser, emit_timing, main
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
    assert "analysis time:" in capsys.readouterr().out
    first = json.loads(out.read_text())
    assert main(argv) == 0
    second = json.loads(out.read_text())
    del first["timing"], second["timing"]
    assert first == second
    sig_ids = {d["sig_id"] for d in first["detections"]}
    assert {"dos-open-suicide", "dos-open-selfdestruct"} <= sig_ids
    assert first["config"]["run"]["command"] == "scan"
    assert first["config"]["run"]["threshold_percent"] == 30


def test_scan_text_format(corpus_dir, capsys):
    assert main(["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "detections in 3 contracts" in out
    assert "DOS:" in out


def test_scan_csv_needs_out(corpus_dir, capsys):
    assert main(["scan", "--in", str(corpus_dir), "--sigs", "builtin", "--format", "csv"]) == 2
    assert "--format csv needs --out" in capsys.readouterr().err


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


def test_clones_no_cache_leaves_no_state(corpus_dir, tmp_path):
    out = tmp_path / "clones.json"
    assert main(["clones", "--in", str(corpus_dir), "--no-cache", "--out", str(out)]) == 0
    assert not (corpus_dir / ".volcano-cache").exists()


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


def test_emit_timing_frozen_strings():
    assert emit_timing([]) == "average NA, total 00:00:00"
    assert emit_timing([100.0] * 10) == "average 00:00:00 (100ms), total 00:00:01"
    assert emit_timing([90061000.0]) == "average 1 day, 01:01:01 (90061000ms), total 1 day, 01:01:01"
    assert emit_timing([249998000.0]).endswith("total 2 days, 21:26:38")


def test_run_config_round_trip():
    rc = RunConfig(command="scan", mode="blind", threshold_percent=10, in_path="/x", fmt="csv")
    assert rc.to_dict()["threshold_percent"] == 10 and rc.to_dict()["jobs"] == 1
    args = build_parser().parse_args(["scan", "--in", "/x", "--sigs", "builtin", "--mode", "blind"])
    echoed = RunConfig.from_args(args)
    assert echoed.command == "scan"
    assert echoed.mode == "blind"
    assert echoed.threshold_percent == 30
    assert echoed.use_cache is True


def test_parser_defaults_follow_subcommand():
    clones = build_parser().parse_args(["clones", "--in", "/x"])
    assert (clones.mode, clones.threshold) == ("blind", 0)
    scan_args = build_parser().parse_args(["scan", "--in", "/x", "--sigs", "builtin"])
    assert (scan_args.mode, scan_args.threshold) == ("consistent", 30)
    derive = build_parser().parse_args(
        ["derive", "--in", "/x", "--labels", "l.csv", "--out", "o"]
    )
    assert (derive.mode, derive.threshold) == ("consistent", 30)
