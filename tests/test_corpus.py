"""Corpus loading, pragma version bucketing, and the explorer fetcher."""
from __future__ import annotations

import hashlib
import json
import logging
import random

import pytest
import requests

import volcano.corpus as corpus_mod
from conftest import make_contract, make_corpus, wrap

from volcano.corpus import (
    Corpus,
    RateBudget,
    SolidityVersion,
    dedupe,
    fetch_contract,
    load_corpus,
    parse_pragma,
    sort_by_version,
)
from volcano.errors import MissingRoot, NetworkError, NotVerified, RateLimited


def test_load_corpus_recursive_sorted_and_skips(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.sol").write_text(wrap("    function f() public { a = 1; }"))
    (tmp_path / "sub" / "a.sol").write_text(wrap("    function g() public { b = 2; }", pragma="pragma solidity ^0.6.2;"))
    (tmp_path / "empty.sol").write_text("")
    (tmp_path / "binary.sol").write_bytes(b"\xff\xfe not utf8 \xff")
    (tmp_path / "notes.txt").write_text("ignored")
    corpus = load_corpus(tmp_path, label="demo")
    assert corpus.label == "demo"
    assert [c.id for c in corpus] == ["b.sol", "sub/a.sol"]
    assert corpus.skipped == 2
    assert corpus.contracts[0].version.bucket == "^0.4"
    assert corpus.contracts[1].version.bucket == "^0.6"
    for c in corpus:
        assert c.content_digest == hashlib.sha256(c.source_text.encode()).hexdigest()


def test_load_corpus_missing_root_raises(tmp_path):
    with pytest.raises(MissingRoot):
        load_corpus(tmp_path / "nowhere")


def test_load_corpus_empty_warns(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="volcano.corpus"):
        corpus = load_corpus(tmp_path)
    assert len(corpus) == 0
    assert any("empty" in r.message.lower() for r in caplog.records)


@pytest.mark.parametrize(
    "constraint,expected",
    [
        ("^0.4.10", (0, 4)),
        ("~0.6.2", (0, 6)),
        ("0.5.0", (0, 5)),
        ("=0.5.16", (0, 5)),
        (">=0.4.22 <0.6.0", (0, 4)),
        (">0.4.99", (0, 4)),
        (">=0.7.0", (0, 7)),
        ("<=0.8.4", (0, 0)),
        ("^0.4.0 || ^0.6.0", (0, 4)),
        ("^0.6.0 || ^0.4.0", (0, 4)),
        ("0.4.x", (0, 4)),
        ("v0.4.24", (0, 4)),
        (">=0.4.21 <=0.4.25", (0, 4)),
    ],
)
def test_parse_pragma_cases(constraint, expected):
    v = parse_pragma(f"pragma solidity {constraint};\ncontract C {{}}")
    assert (v.major, v.minor) == expected
    assert v.raw == constraint
    assert v.bucket == f"^{expected[0]}.{expected[1]}"


def test_parse_pragma_absent_or_hidden():
    assert parse_pragma("contract C {}") is None
    assert parse_pragma("// pragma solidity ^0.4.0;\ncontract C {}") is None
    assert parse_pragma('string s = "pragma solidity ^0.4.0;";') is None
    masked_then_real = "/* pragma solidity ^0.8.0; */\npragma solidity ^0.5.1;\n"
    assert parse_pragma(masked_then_real).minor == 5


def test_parse_pragma_first_directive_wins():
    src = "pragma solidity ^0.4.10;\npragma solidity ^0.6.0;\n"
    assert parse_pragma(src).minor == 4


def _admits(op: str, parts, v) -> bool:
    """Independent clause semantics for the enumeration oracle."""
    maj, minor, patch = parts
    lo = (maj, minor or 0, patch or 0)
    hi_open = None
    if op in ("", "="):
        return (
            v[0] == maj
            and (minor is None or v[1] == minor)
            and (patch is None or v[2] == patch)
        )
    if op == "^":
        if maj > 0 or minor is None:
            hi_open = (maj + 1, 0, 0)
        elif minor > 0 or patch is None:
            hi_open = (0, minor + 1, 0)
        else:
            hi_open = (0, 0, (patch or 0) + 1)
        return lo <= v < hi_open
    if op == "~":
        hi_open = (maj + 1, 0, 0) if minor is None else (maj, minor + 1, 0)
        return lo <= v < hi_open
    if op == ">=":
        return v >= lo
    if op == ">":
        if patch is None:
            return v >= ((maj, minor + 1, 0) if minor is not None else (maj + 1, 0, 0))
        return v > (maj, minor or 0, patch)
    if op == "<=":
        return (
            v[0] < maj
            or (v[0] == maj and (minor is None or v[1] < minor))
            or (v[0] == maj and v[1] == (minor or 0) and (patch is None or v[2] <= patch))
        )
    if op == "<":
        return v < lo
    raise AssertionError(op)


def test_parse_pragma_matches_enumeration_oracle():
    rng = random.Random(20260814)
    grid = [
        (maj, minor, patch)
        for maj in (0, 1)
        for minor in range(0, 14)
        for patch in range(0, 42)
    ]

    def rand_clause():
        op = rng.choice(["^", "~", ">=", ">", "<=", "<", "", "="])
        return op, (0, rng.randint(0, 8), rng.randint(0, 30))

    for _ in range(150):
        shape = rng.random()
        if shape < 0.5:
            alternatives = [[rand_clause()]]
        elif shape < 0.8:
            low = (">=", (0, rng.randint(0, 6), rng.randint(0, 20)))
            high = ("<", (0, rng.randint(0, 8), rng.randint(0, 20)))
            alternatives = [[low, high]]
        else:
            alternatives = [[rand_clause()], [rand_clause()]]

        text = " || ".join(
            " ".join(f"{op}{p[0]}.{p[1]}.{p[2]}" for op, p in alt) for alt in alternatives
        )
        want = None
        for v in grid:
            if any(all(_admits(op, p, v) for op, p in alt) for alt in alternatives):
                want = v
                break
        got = parse_pragma(f"pragma solidity {text};")
        if want is None:
            assert got is None, text
        else:
            assert got is not None, text
            assert (got.major, got.minor) == (want[0], want[1]), text


def test_sort_by_version_numeric_order_unknown_last():
    corpus = make_corpus(
        "mix",
        {
            "ten": wrap("    function f() public { a = 1; }", pragma="pragma solidity ^0.10.0;"),
            "four": wrap("    function f() public { a = 1; }", pragma="pragma solidity ^0.4.0;"),
            "none": "contract C { function f() public { a = 1; } }",
            "four2": wrap("    function g() public { b = 2; }", pragma="pragma solidity ^0.4.21;"),
        },
    )
    buckets = sort_by_version(corpus)
    assert list(buckets) == ["^0.4", "^0.10", "unknown"]
    assert [c.id for c in buckets["^0.4"]] == ["four", "four2"]
    assert [c.id for c in buckets["unknown"]] == ["none"]
    assert buckets["^0.4"].label == "mix:^0.4"


def test_dedupe_keeps_first_occurrence():
    text = wrap("    function f() public { a = 1; }")
    corpus = make_corpus("d", {"x": text, "y": text, "z": wrap("    function g() public { b = 2; }")})
    kept = dedupe(corpus)
    assert [c.id for c in kept] == ["x", "z"]


class FakeTime:
    def __init__(self):
        self.t = 0.0
        self.slept: list[float] = []

    def clock(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.t += seconds


def test_rate_budget_spaces_requests():
    ft = FakeTime()
    budget = RateBudget(max_per_second=2.0, clock=ft.clock, sleep=ft.sleep)
    budget.wait()
    assert ft.slept == []
    budget.wait()
    budget.wait()
    assert ft.slept == [0.5, 0.5]


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


ADDR = "0x" + "ab" * 20


def _verified(source: str) -> FakeResponse:
    return FakeResponse(200, {"status": "1", "result": [{"SourceCode": source}]})


def _budget():
    ft = FakeTime()
    return RateBudget(max_per_second=1000.0, clock=ft.clock, sleep=ft.sleep)


def test_fetch_success_persists_and_parses(tmp_path, monkeypatch):
    source = wrap("    function f() public { a = 1; }")
    calls = []

    def fake_get(url, params, timeout):
        calls.append((url, dict(params)))
        return _verified(source)

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    contract = fetch_contract(ADDR, "KEY", tmp_path / "corpus", rate_budget=_budget())
    assert len(calls) == 1
    url, params = calls[0]
    assert url == corpus_mod.DEFAULT_EXPLORER_URL
    assert params["address"] == ADDR and params["apikey"] == "KEY"
    assert params["module"] == "contract" and params["action"] == "getsourcecode"
    assert (tmp_path / "corpus" / f"{ADDR}.sol").read_text() == source
    assert contract.id == f"{ADDR}.sol"
    assert contract.version.bucket == "^0.4"
    assert contract.content_digest == hashlib.sha256(source.encode()).hexdigest()


def test_fetch_malformed_address_no_network(tmp_path, monkeypatch):
    def fake_get(url, params, timeout):
        raise AssertionError("network must not be touched")

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    with pytest.raises(ValueError):
        fetch_contract("0x1234", "KEY", tmp_path, rate_budget=_budget())


def test_fetch_unverified_raises_without_retry(tmp_path, monkeypatch):
    calls = []

    def fake_get(url, params, timeout):
        calls.append(1)
        return _verified("   ")

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    with pytest.raises(NotVerified):
        fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget())
    assert len(calls) == 1


def test_fetch_rate_limited_backs_off_then_raises(tmp_path, monkeypatch):
    calls = []
    naps = []

    def fake_get(url, params, timeout):
        calls.append(1)
        return FakeResponse(429)

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    with pytest.raises(RateLimited):
        fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget(), retries=3, _sleep=naps.append)
    assert len(calls) == 4
    assert naps == [1.0, 2.0, 4.0]


def test_fetch_server_error_then_success(tmp_path, monkeypatch):
    responses = [FakeResponse(503), _verified(wrap("    function f() public { a = 1; }"))]

    def fake_get(url, params, timeout):
        return responses.pop(0)

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    contract = fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget(), _sleep=lambda s: None)
    assert contract.id == f"{ADDR}.sol"
    assert not responses


def test_fetch_transport_exception_then_success(tmp_path, monkeypatch):
    responses = [requests.ConnectionError("boom"), _verified(wrap("    function f() public { a = 1; }"))]

    def fake_get(url, params, timeout):
        item = responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    contract = fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget(), _sleep=lambda s: None)
    assert contract.id == f"{ADDR}.sol"


def test_fetch_explorer_rate_limit_message_retries(tmp_path, monkeypatch):
    calls = []

    def fake_get(url, params, timeout):
        calls.append(1)
        return FakeResponse(200, {"status": "0", "message": "NOTOK", "result": "Max rate limit reached"})

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    with pytest.raises(RateLimited):
        fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget(), retries=1, _sleep=lambda s: None)
    assert len(calls) == 2


def test_fetch_explorer_other_error_raises(tmp_path, monkeypatch):
    def fake_get(url, params, timeout):
        return FakeResponse(200, {"status": "0", "message": "NOTOK", "result": "Invalid API Key"})

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    with pytest.raises(NetworkError):
        fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget())


def test_version_dataclass_bucket():
    assert SolidityVersion(0, 4, "^0.4.10").bucket == "^0.4"
    assert SolidityVersion(0, 10, ">=0.10").bucket == "^0.10"


def test_corpus_iteration_and_len():
    corpus = make_corpus("c", {"a": wrap("    function f() public { a = 1; }")})
    assert len(corpus) == 1
    assert [c.id for c in corpus] == ["a"]
    assert isinstance(corpus, Corpus)
    assert make_contract("a", "contract C {}").version is None
