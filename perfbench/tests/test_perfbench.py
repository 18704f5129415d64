"""Tests of the benchmark itself: generators, the independent LCS checker,
and one tiny instance of every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def _generate_all(seed: int) -> list[dict[str, str]]:
    red = gen.redundant_corpus(seed, contracts=50)
    div = gen.diverse_corpus(seed, contracts=30)
    lab = gen.labeled_corpus(seed)
    versions, _ = gen.versions_corpus(seed, lab, contracts=60)
    return [red.files, div.files, gen.edit_script(seed, div).files, lab.corpus.files, versions.files,
            {"labels.csv": gen.labels_csv(lab.labels)}]


def test_generators_are_deterministic_per_seed():
    assert _generate_all(3) == _generate_all(3)
    assert _generate_all(3) != _generate_all(4)


def test_redundant_corpus_is_acceptance_8_by_shape():
    """1,000 contracts, 30,000 fragments, 600 distinct consistent sequences,
    3,014 detections; detections counted with the textbook LCS per distinct
    sequence, weighted by how many fragments carry it."""
    from volcano.corpus import SourceContract
    from volcano.extractor import extract_functions
    from volcano.normalize import RenamingMode, in_mode, pretty_print
    from volcano.signatures import builtin_signatures

    red = gen.redundant_corpus(None)
    counts: dict[tuple, int] = {}
    fragments = 0
    for cid, text in red.files.items():
        for fragment in extract_functions(SourceContract(cid, text, "")):
            seq = in_mode(pretty_print(fragment), RenamingMode.CONSISTENT).lines
            counts[seq] = counts.get(seq, 0) + 1
            fragments += 1
    exemplars = [in_mode(s.exemplar, RenamingMode.CONSISTENT).lines for s in builtin_signatures()]
    detections = sum(
        n
        for seq, n in counts.items()
        for ex in exemplars
        if checks.passes_size_filter(len(seq), len(ex)) and checks.is_clone(seq, ex)[0]
    )
    assert (len(red.files), fragments, len(counts), detections) == (1000, 30000, 600, 3014)
    assert sum(len(s) for s in red.builtin_hits.values()) == 3014


def test_redundant_seed_only_renames_files():
    base, other = gen.redundant_corpus(None), gen.redundant_corpus(11)
    assert sorted(base.files.values()) == sorted(other.files.values())
    assert base.files != other.files


def test_textbook_lcs_agrees_with_oracle():
    from conftest import lcs_oracle

    rng = random.Random(0)
    for _ in range(400):
        a = [rng.choice("abcd") for _ in range(rng.randrange(0, 9))]
        b = [rng.choice("abcd") for _ in range(rng.randrange(0, 9))]
        assert checks.textbook_lcs(a, b) == lcs_oracle(a, b)


def test_parse_normalize_round_trip():
    text = "-- a.sol:f:1-3 [consistent]\nfunction f ( )\n{\n}\n\n-- a.sol:g:5-7 [consistent]\nx ;\n"
    assert checks.parse_normalize(text) == {"a.sol:f:1-3": ["function f ( )", "{", "}"], "a.sol:g:5-7": ["x ;"]}
    assert checks.split_uid("d0001.sol:settle3:10-20") == ("d0001.sol", "settle3")


def _tiny(monkeypatch):
    """Shrink every generator and the repetition counts; the plans stay the same.
    Recorded digests belong to the full-size corpora, so none are read."""
    monkeypatch.setattr(run, "DIGESTS", ROOT / ".perfbench" / "no-digests.json")
    monkeypatch.setattr(run, "REDUNDANT_CONTRACTS", 40)
    monkeypatch.setattr(run, "DIVERSE", {"contracts": 20, "families": 3, "family_size": 4})
    real_labeled = gen.labeled_corpus
    monkeypatch.setattr(gen, "labeled_corpus", lambda seed, **_: real_labeled(seed, pure=3, mixed=1, family_size=5))
    monkeypatch.setattr(run, "VERSIONS", {"contracts": 30, "per_family": 2})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_has_no_failures(workload, trace, monkeypatch):
    _tiny(monkeypatch)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_outside_a_checkout():
    empty = ROOT / ".perfbench" / "not-a-checkout"
    empty.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "scan-redundant", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=empty, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
