"""Report bytes pinned against the reference implementation.

Each command runs over GOLDEN_SOURCES and the sha256 of its output is
compared to a digest recorded from the code before the fragment-path
refactor. Sections that carry wall-clock times or the caller's paths
(`timing`, the scan's `config.run`, the clones `run`) are dropped first;
everything else must match byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import os

import pytest

from conftest import GOLDEN_LABELS, GOLDEN_SOURCES

from volcano.cli import main

GOLDEN = {
    "scan": "400737ff7e3d8f4150d505e121184baeeb257578c46053e48d33af6f69901799",
    "clones": "c03c5a9756c66c65eda752fa39fcd9ccad977186fbadc06d4f5256bcb1e3343e",
    "derive": "b97da6bae45292d5f8fcbae9b331198d123c0388cd0730eae6d585dd320b992d",
    "evolve.csv": "3a98f595e91bbb49e436674eef000551fe91bba7112823c48f9e0444cf1779a9",
    "evolve.json": "e599524cd719186160db915cca610c838cfcc4d6c1e2fb1856dfe2969b2699e1",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(doc) -> str:
    return _sha(json.dumps(doc, indent=2, sort_keys=True).encode("utf-8"))


@pytest.fixture
def golden_corpus(tmp_path):
    root = tmp_path / "golden"
    root.mkdir()
    for name, text in GOLDEN_SOURCES.items():
        (root / name).write_text(text)
    return root


@pytest.fixture(params=["1", "2"])
def jobs(request, monkeypatch):
    """--jobs for scan and evolve: 2 runs the sweep on a worker pool, whatever the host's CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return request.param


def test_golden_scan(golden_corpus, tmp_path, jobs):
    out = tmp_path / "scan.json"
    argv = ["scan", "--in", str(golden_corpus), "--sigs", "builtin", "--out", str(out), "--jobs", jobs]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    del doc["timing"], doc["config"]["run"]
    assert doc["detections"] and doc["classes"]
    assert _json_sha(doc) == GOLDEN["scan"]


def test_golden_clones(golden_corpus, tmp_path):
    out = tmp_path / "clones.json"
    argv = ["clones", "--in", str(golden_corpus), "--mode", "consistent", "--threshold", "30",
            "--no-cache", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    del doc["run"]
    assert doc["pairs"] and doc["classes"]
    assert _json_sha(doc) == GOLDEN["clones"]


def test_golden_derive(golden_corpus, tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{cid},{t}\n" for cid, t in GOLDEN_LABELS.items()))
    out = tmp_path / "sigs"
    assert main(["derive", "--in", str(golden_corpus), "--labels", str(labels), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in files and "review.json" in files
    assert json.loads((out / "review.json").read_text())["mixed_classes"]
    blob = b"".join(name.encode("utf-8") + b"\0" + (out / name).read_bytes() for name in files)
    assert _sha(blob) == GOLDEN["derive"]


def test_golden_evolve(golden_corpus, tmp_path, jobs):
    csv_out = tmp_path / "evolution.csv"
    json_out = tmp_path / "evolution.json"
    assert main(["evolve", "--in", str(golden_corpus), "--sigs", "builtin",
                 "--out", str(csv_out), "--json-out", str(json_out), "--jobs", jobs]) == 0
    assert _sha(csv_out.read_bytes()) == GOLDEN["evolve.csv"]
    assert _sha(json_out.read_bytes()) == GOLDEN["evolve.json"]
