"""Corpus loading, pragma version bucketing, and the explorer fetcher."""
from __future__ import annotations

import hashlib
import http.server
import json
import logging
import os
import random
import socketserver
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import volcano.corpus as corpus_mod
from conftest import make_contract, make_corpus, wrap
from volcano.cli import main
from volcano.extractor import extract_functions

from volcano.corpus import (
    Corpus,
    RateBudget,
    SolidityVersion,
    SourceContract,
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


def test_a_contract_is_its_id_and_text_and_drops_a_passed_digest():
    text = wrap("    function f() public { a = 1; }", pragma="pragma solidity ^0.5.1;")
    contract = SourceContract("c.sol", text, "not the digest")
    assert [f.name for f in fields(contract)] == ["id", "source_text"]
    assert contract == SourceContract("c.sol", text)
    assert contract.content_digest == hashlib.sha256(text.encode()).hexdigest()
    assert contract.version.bucket == "^0.5"


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
        ("=0.4", (0, 4)),
        ("<=0", (0, 0)),
        (">0.x", (1, 0)),
        (">0.x.5", (0, 0)),  # the least version above some 0.x.5 is 0.0.6
        ("~0.4.5 >=0.4.7", (0, 4)),
        ("foo || ^0.5.0", (0, 5)),  # an alternative without a clause admits nothing
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


def test_a_number_too_long_to_read_admits_no_version():
    huge = "9" * 5_000  # past int()'s 4,300-digit limit
    assert parse_pragma(f"pragma solidity ^0.{huge};") is None
    assert parse_pragma(f"pragma solidity >={huge}.4.0;") is None
    v = parse_pragma(f"pragma solidity ^0.{huge} || ^0.5.0;")
    assert (v.major, v.minor) == (0, 5)


@pytest.mark.parametrize(
    "text, bucket",
    [
        ("pragma solidity x " * 10_000, None),  # no ';' after any occurrence
        ("pragma solidity ^" + " " * 20_000 + "x;", None),
        ("pragma solidity 1" + " " * 20_000 + "x;", "^1.0"),
    ],
    ids=["no-semicolon", "spaces-after-an-operator", "spaces-after-a-clause"],
)
def test_parse_pragma_is_linear_on_hostile_text(text, bucket):
    started = time.perf_counter()
    v = parse_pragma(text)
    assert time.perf_counter() - started < 2.0
    assert (v and v.bucket) == bucket


_PRAGMA_PIECES = st.one_of(
    st.sampled_from(["pragma", "solidity", " ", "\n", ";", "^", "~", ">=", "<", "=", "v", ".", "x", "*", "||", "0", "4"]),
    st.text(max_size=6),
    st.integers(4_290, 4_400).map(lambda n: "9" * n),
)


@given(
    st.sampled_from(["", "pragma solidity ", "pragma solidity ^0."]),
    st.lists(_PRAGMA_PIECES, max_size=10).map("".join),
    st.sampled_from(["", ";"]),
)
@example("pragma solidity ^0.", "9" * 4_400, ";")
def test_parse_pragma_never_raises(prefix, body, end):
    v = parse_pragma(prefix + body + end)
    assert v is None or (v.major >= 0 and v.minor >= 0)


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
        for maj in (0, 1, 2)
        for minor in range(0, 14)
        for patch in range(0, 42)
    ]

    def rand_version(maj=None):
        """(text, parts) of a version; absent or trailing x/* parts are None."""
        maj = rng.randint(0, 1) if maj is None else maj
        minor, patch = rng.randint(0, 8), rng.randint(0, 30)
        wild = rng.choice("x*")
        return rng.choice([
            (f"{maj}.{minor}.{patch}", (maj, minor, patch)),
            (f"{maj}.{minor}.{patch}", (maj, minor, patch)),
            (f"{maj}", (maj, None, None)),
            (f"{maj}.{minor}", (maj, minor, None)),
            (f"{maj}.{wild}", (maj, None, None)),
            (f"{maj}.{minor}.{wild}", (maj, minor, None)),
            (f"{maj}.{wild}.{wild}", (maj, None, None)),
        ])

    def rand_clause(op=None, maj=None):
        return (rng.choice(["^", "~", ">=", ">", "<=", "<", "", "="]) if op is None else op,
                *rand_version(maj))

    for _ in range(400):
        shape = rng.random()
        if shape < 0.4:
            alternatives = [[rand_clause()]]
        elif shape < 0.6:
            alternatives = [[rand_clause(">=", 0), rand_clause("<", 0)]]
        elif shape < 0.8:
            alternatives = [[rand_clause(), rand_clause()]]
        else:
            alternatives = [[rand_clause()], [rand_clause()]]

        text = " || ".join(" ".join(f"{op}{v}" for op, v, _ in alt) for alt in alternatives)
        want = None
        for v in grid:
            if any(all(_admits(op, p, v) for op, _, p in alt) for alt in alternatives):
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


@pytest.mark.parametrize("rate", [0, -1.0, float("nan"), float("inf"), 1e-12, 1 / 86401])
def test_rate_budget_rejects_a_rate_it_cannot_keep(rate):
    with pytest.raises(ValueError, match="one request a day"):
        RateBudget(rate)


def test_rate_budget_keeps_one_request_a_day():
    ft = FakeTime()
    budget = RateBudget(1 / 86400, clock=ft.clock, sleep=ft.sleep)
    budget.wait()
    budget.wait()
    assert ft.slept == [pytest.approx(86400)]


def _response(status: int = 200, payload=None) -> tuple[int, bytes]:
    """An explorer response as _http_get returns it: (status, body bytes)."""
    return status, json.dumps(payload or {}).encode()


ADDR = "0x" + "ab" * 20


def _verified(source: str) -> tuple[int, bytes]:
    return _response(200, {"status": "1", "result": [{"SourceCode": source}]})


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


def test_fetch_client_error_raises_without_retry(tmp_path, monkeypatch):
    calls = []

    def fake_get(url, params, timeout):
        calls.append(1)
        return _response(404)

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    with pytest.raises(NetworkError, match="HTTP 404"):
        fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget(), _sleep=lambda s: pytest.fail("slept"))
    assert len(calls) == 1


def test_fetch_rate_limited_backs_off_then_raises(tmp_path, monkeypatch):
    calls = []
    naps = []

    def fake_get(url, params, timeout):
        calls.append(1)
        return _response(429)

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    with pytest.raises(RateLimited):
        fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget(), retries=3, _sleep=naps.append)
    assert len(calls) == 4
    assert naps == [1.0, 2.0, 4.0]


def test_fetch_server_error_then_success(tmp_path, monkeypatch):
    responses = [_response(503), _verified(wrap("    function f() public { a = 1; }"))]

    def fake_get(url, params, timeout):
        return responses.pop(0)

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    contract = fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget(), _sleep=lambda s: None)
    assert contract.id == f"{ADDR}.sol"
    assert not responses


def test_fetch_transport_exception_then_success(tmp_path, monkeypatch):
    responses = [ConnectionError("boom"), _verified(wrap("    function f() public { a = 1; }"))]

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
        return _response(200, {"status": "0", "message": "NOTOK", "result": "Max rate limit reached"})

    monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
    with pytest.raises(RateLimited):
        fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget(), retries=1, _sleep=lambda s: None)
    assert len(calls) == 2


def test_fetch_explorer_other_error_raises(tmp_path, monkeypatch):
    def fake_get(url, params, timeout):
        return _response(200, {"status": "0", "message": "NOTOK", "result": "Invalid API Key"})

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


def _src_env() -> dict:
    src = str(Path(corpus_mod.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_importing_the_cli_does_not_import_requests():
    """Only fetch needs an HTTP client and only --jobs a process pool, so other commands skip both;
    detector, signatures and cache load only with the commands that run them."""
    heavy = ["requests", "urllib.request", "concurrent.futures.process",
             "volcano.detector", "volcano.signatures", "volcano.cache"]
    out = subprocess.run(
        [sys.executable, "-c", f"import volcano.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"],
        env=_src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_fetch_rejects_a_response_of_the_wrong_shape(tmp_path, monkeypatch):
    bodies = [
        b"<html>Bad Gateway</html>",
        b"[1, 2]",
        b'"result"',
        b"[" * 100_000,
        json.dumps({"status": "1", "result": []}).encode(),
        json.dumps({"status": "1", "result": "Contract source code not verified"}).encode(),
        json.dumps({"status": "1", "result": [1]}).encode(),
        json.dumps({"status": "1", "result": [{"ABI": "[]"}]}).encode(),
        json.dumps({"status": "1", "result": [{"SourceCode": 5}]}).encode(),
        json.dumps({"status": "1", "result": [{"SourceCode": "\ud800 contract C {}"}]}).encode(),
    ]
    for body in bodies:
        monkeypatch.setattr(corpus_mod, "_http_get", lambda url, params, timeout: (200, body))
        with pytest.raises(NetworkError, match=ADDR):
            fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget())
    assert not list(tmp_path.iterdir())


MULTI_FILES = {
    "contracts/Pay.sol": wrap("    function pay(address to) public {\n        to.send(1);\n    }",
                              pragma="pragma solidity ^0.6.2;"),
    "contracts/Ledger.sol": wrap("    function take(uint n) public {\n        total -= n;\n    }",
                                 pragma="pragma solidity ^0.5.1;"),
    'odd\n// File: "injected.sol"': "contract D {\n    function drop() public {\n        x = 0;\n    }\n}\n",
}


@pytest.mark.parametrize("form", ["standard-json", "file-map"])
def test_fetch_flattens_a_multi_file_source(form, tmp_path, monkeypatch):
    files = {path: {"content": text} for path, text in MULTI_FILES.items()}
    if form == "standard-json":
        source = "{" + json.dumps({"language": "Solidity", "sources": files, "settings": {}}) + "}"
    else:
        source = json.dumps(files)
    monkeypatch.setattr(corpus_mod, "_http_get", lambda url, params, timeout: _verified(source))
    contract = fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget())

    text = (tmp_path / f"{ADDR}.sol").read_text()
    assert contract.source_text == text
    headers = [line for line in text.splitlines() if line.startswith("// File: ")]
    assert headers == [f"// File: {json.dumps(path)}" for path in sorted(MULTI_FILES)]
    assert {f.name for f in extract_functions(contract)} == {"pay", "take", "drop"}
    assert contract.version == SolidityVersion(0, 5, "^0.5.1")  # Ledger.sol sorts before Pay.sol


@pytest.mark.parametrize("source", ["{not json", "{{not json}}", "{}", '{"A.sol": "contract A {}"}',
                                    '{{"language": "Solidity", "sources": {"A.sol": {"urls": []}}}}'])
def test_fetch_rejects_a_broken_multi_file_source(source, tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_mod, "_http_get", lambda url, params, timeout: _verified(source))
    with pytest.raises(NetworkError, match=ADDR):
        fetch_contract(ADDR, "KEY", tmp_path, rate_budget=_budget())


@pytest.fixture
def no_proxy(monkeypatch):
    """Loopback requests go straight to the test server, whatever proxy is configured."""
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")


@pytest.fixture
def explorer(no_proxy):
    """start(respond) serves a loopback explorer and returns (url, queries).

    Each GET's query is parsed and appended to queries, then answered with
    respond(queries) -> (status, body bytes).
    """
    servers = []

    def start(respond):
        queries = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                queries.append(dict(urllib.parse.parse_qsl(urllib.parse.urlsplit(self.path).query)))
                status, body = respond(queries)
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}/api", queries

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _in_turn(*responses):
    """Answer the n-th request with responses[n]; the last one repeats."""
    return lambda queries: responses[min(len(queries), len(responses)) - 1]


SOURCE = wrap("    function f() public { a = 1; }")


def test_loopback_fetch_writes_the_source(explorer, tmp_path):
    url, queries = explorer(_in_turn(_verified(SOURCE)))
    contract = fetch_contract(ADDR, "KEY", tmp_path, base_url=url, rate_budget=_budget())
    assert (tmp_path / f"{ADDR}.sol").read_text() == SOURCE == contract.source_text
    assert queries == [{"module": "contract", "action": "getsourcecode", "address": ADDR, "apikey": "KEY"}]


def test_loopback_rate_limit_raises_after_every_retry(explorer, tmp_path):
    url, queries = explorer(_in_turn(_response(429)))
    with pytest.raises(RateLimited):
        fetch_contract(ADDR, "KEY", tmp_path, base_url=url, rate_budget=_budget(), retries=2,
                       _sleep=lambda s: None)
    assert len(queries) == 3


def test_loopback_server_error_then_success(explorer, tmp_path):
    url, queries = explorer(_in_turn(_response(503, {"message": "busy"}), _verified(SOURCE)))
    contract = fetch_contract(ADDR, "KEY", tmp_path, base_url=url, rate_budget=_budget(),
                              _sleep=lambda s: None)
    assert contract.source_text == SOURCE
    assert len(queries) == 2


def test_loopback_non_json_body_raises(explorer, tmp_path):
    url, queries = explorer(_in_turn((200, b"<html>maintenance</html>")))
    with pytest.raises(NetworkError, match=ADDR):
        fetch_contract(ADDR, "KEY", tmp_path, base_url=url, rate_budget=_budget())
    assert len(queries) == 1


def test_loopback_closed_port_raises(no_proxy, tmp_path):
    server = http.server.HTTPServer(("127.0.0.1", 0), http.server.BaseHTTPRequestHandler)
    port = server.server_port
    server.server_close()
    naps = []
    with pytest.raises(NetworkError, match=ADDR):
        fetch_contract(ADDR, "KEY", tmp_path, base_url=f"http://127.0.0.1:{port}/api",
                       rate_budget=_budget(), retries=1, _sleep=naps.append)
    assert naps == [1.0]


@pytest.mark.parametrize("reply", [
    b"NOT HTTP\r\n\r\n",
    b"HTTP/1.0 200 OK\r\nContent-Length: 99\r\n\r\n{}",
    b"HTTP/1.0 404 Not Found\r\nContent-Length: 99\r\n\r\n{}",
])
def test_loopback_garbled_response_raises(reply, no_proxy, tmp_path):
    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.recv(65536)
            self.request.sendall(reply)

    with socketserver.TCPServer(("127.0.0.1", 0), Handler) as server:
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}/api"
        try:
            with pytest.raises(NetworkError, match=ADDR):
                fetch_contract(ADDR, "KEY", tmp_path, base_url=url, rate_budget=_budget(), retries=0)
        finally:
            server.shutdown()


@pytest.mark.parametrize("url", ["file:///dev/null", "127.0.0.1/api", "http://[::1/api"])
def test_fetch_from_a_non_http_url_raises(url, tmp_path):
    with pytest.raises(NetworkError, match=ADDR):
        fetch_contract(ADDR, "KEY", tmp_path, base_url=url, rate_budget=_budget(), retries=0)


ADDR_2 = "0x" + "cd" * 20


def test_cli_fetch_warns_about_a_bad_body_and_goes_on(explorer, tmp_path, capsys):
    bodies = {ADDR: (200, b"[1, 2]"), ADDR_2: _verified(SOURCE)}
    url, _ = explorer(lambda queries: bodies[queries[-1]["address"]])
    out = tmp_path / "corpus"
    argv = ["fetch", "--address", ADDR, "--address", ADDR_2, "--out", str(out),
            "--explorer-url", url, "--rate", "1000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"warning: {ADDR}" in captured.err and "Traceback" not in captured.err
    assert [p.name for p in out.iterdir()] == [f"{ADDR_2}.sol"]
    assert "1/2 contracts fetched" in captured.out


def test_cli_fetch_runs_without_requests(explorer, tmp_path):
    url, queries = explorer(_in_turn(_verified(SOURCE)))
    out = tmp_path / "corpus"
    code = ('import sys; sys.modules["requests"] = None\n'
            "from volcano.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    argv = ["fetch", "--address", ADDR, "--out", str(out), "--explorer-url", url]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (out / f"{ADDR}.sol").read_text() == SOURCE
    assert len(queries) == 1
