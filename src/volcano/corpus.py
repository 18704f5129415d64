"""Corpus handling: loading .sol trees, pragma bucketing, dedupe, fetching.

A corpus is an ordered list of contracts; order is the lexicographic order
of paths relative to the root, so two loads of the same tree are
byte-identical. Version bucketing keys each contract by the lowest
compiler version its first pragma admits: `^0.4.24` and
`>=0.4.22 <0.6.0` both land in bucket ^0.4.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import time
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import MissingRoot, NetworkError, NotVerified, RateLimited
from .extractor import _mask

log = logging.getLogger(__name__)

DEFAULT_EXPLORER_URL = "https://api.etherscan.io/api"
EXPLORER_KEY_ENV = "VOLCANO_EXPLORER_KEY"

# Linear on any text: no ';' after the first pragma means none after any
# (one match says so), and a clause never starts at a space.
_PRAGMA_RE = re.compile(r"pragma\s+solidity\s+([^;]+)(;?)")
_CLAUSE_RE = re.compile(r"(?:(\^|~|>=|<=|>|<|=)\s*)?v?(\d+)(?:\.(\d+|x|\*))?(?:\.(\d+|x|\*))?")
ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]{40}")


@dataclass(frozen=True)
class SolidityVersion:
    major: int
    minor: int
    raw: str

    @property
    def bucket(self) -> str:
        return f"^{self.major}.{self.minor}"


@dataclass(frozen=True)
class SourceContract:
    """A contract is its id and its text; the rest is derived on first read."""

    id: str
    source_text: str
    # Older callers pass a digest third; it is accepted and dropped, never stored.
    legacy_digest: InitVar[str | None] = None

    @cached_property
    def content_digest(self) -> str:
        """sha256 of the UTF-8 text: the digest of the file's bytes, as loading decodes strictly."""
        return hashlib.sha256(self.source_text.encode("utf-8")).hexdigest()

    @cached_property
    def version(self) -> SolidityVersion | None:
        return parse_pragma(self.source_text)


@dataclass
class Corpus:
    label: str
    contracts: list[SourceContract] = field(default_factory=list)
    skipped: int = 0  # unreadable or empty files counted at load time

    def __iter__(self):
        return iter(self.contracts)

    def __len__(self) -> int:
        return len(self.contracts)


def _num(part: str | None) -> int | None:
    if part is None or part in ("x", "*"):
        return None
    return int(part)


def _bounds(op: str, maj: int, minor: int | None, patch: int | None):
    """The half-open interval [lo, hi) of versions one comparator admits.

    hi None is unbounded. A missing or wildcard part widens the version
    the clause names: `=0.4` admits every 0.4.z and `<=0` every 0.y.z.
    """
    lo = (maj, minor or 0, patch or 0)
    if minor is None:
        past = (maj + 1, 0, 0)  # the first version past every one the clause names
    elif patch is None:
        past = (maj, minor + 1, 0)
    else:
        past = (maj, minor, patch + 1)
    if op in ("", "="):
        return lo, past
    if op == "^":  # the leftmost nonzero part stays fixed
        return lo, (maj + 1, 0, 0) if maj else (0, minor + 1, 0) if minor else past
    if op == "~":
        return lo, (maj + 1, 0, 0) if minor is None else (maj, minor + 1, 0)
    if op == ">=":
        return lo, None
    if op == ">":
        return (past if patch is None else (maj, minor or 0, patch + 1)), None
    if op == "<=":
        return (0, 0, 0), past
    return (0, 0, 0), lo  # "<"


def parse_pragma(source_text: str) -> SolidityVersion | None:
    """Lowest compiler version admitted by the first pragma, or None.

    The search runs over masked text so a pragma inside a comment or
    string never wins. Constraints may combine comparator clauses
    (conjunction) and `||` alternatives; the result is the minimum version
    satisfying any alternative.
    """
    masked = _mask(source_text, mask_strings=True, warn_to=None)
    m = _PRAGMA_RE.search(masked)
    if not m or not m.group(2):
        return None
    raw = m.group(1).strip()
    best = None
    for alternative in raw.split("||"):
        try:
            bounds = [
                _bounds(c.group(1) or "", int(c.group(2)), _num(c.group(3)), _num(c.group(4)))
                for c in _CLAUSE_RE.finditer(alternative)
            ]
        except ValueError:  # a number too long for int() admits no version
            continue
        if not bounds:
            continue
        lowest = max(lo for lo, _ in bounds)
        if all(hi is None or lowest < hi for _, hi in bounds) and (best is None or lowest < best):
            best = lowest
    if best is None:
        return None
    return SolidityVersion(major=best[0], minor=best[1], raw=raw)


def load_corpus(root, label: str | None = None) -> Corpus:
    """Load every .sol file under root, recursively, in stable path order."""
    root = Path(root)
    if not root.is_dir():
        raise MissingRoot(f"corpus root does not exist: {root}")
    contracts = []
    skipped = 0
    paths = sorted(
        (p for p in root.rglob("*.sol") if p.is_file()),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    for path in paths:
        try:
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            skipped += 1
            log.warning("skipping %s: not valid UTF-8", path)
            continue
        if not text:
            skipped += 1
            log.warning("skipping %s: empty file", path)
            continue
        contracts.append(SourceContract(path.relative_to(root).as_posix(), text))
    if not contracts:
        log.warning("empty corpus under %s", root)
    return Corpus(label=label or root.absolute().name, contracts=contracts, skipped=skipped)


def sort_by_version(corpus: Corpus) -> dict[str, Corpus]:
    """Partition a corpus into version buckets; pragma-less contracts go to 'unknown'."""
    groups: dict[str, list[SourceContract]] = {}
    for c in corpus:
        key = c.version.bucket if c.version else "unknown"
        groups.setdefault(key, []).append(c)

    def order(key: str):
        if key == "unknown":
            return (1, 0, 0)
        major, minor = key.lstrip("^").split(".")
        return (0, int(major), int(minor))

    return {
        key: Corpus(label=f"{corpus.label}:{key}", contracts=groups[key])
        for key in sorted(groups, key=order)
    }


def dedupe(corpus: Corpus) -> Corpus:
    """Drop contracts whose exact source bytes were already seen, keeping first."""
    seen = set()
    kept = []
    for c in corpus:
        if c.content_digest in seen:
            continue
        seen.add(c.content_digest)
        kept.append(c)
    return Corpus(label=corpus.label, contracts=kept, skipped=corpus.skipped)


def check_rate(max_per_second: float) -> float:
    """max_per_second, if RateBudget can keep it; ValueError otherwise.

    RateBudget sleeps 1/rate seconds between requests, and time.sleep
    overflows past about 9e9 s, so the floor is one request a day.
    """
    if not 1 / 86400 <= max_per_second < float("inf"):
        raise ValueError(
            f"rate must be finite and at least one request a day (1/86400 per second), got {max_per_second}"
        )
    return max_per_second


class RateBudget:
    """Spaces outgoing requests to at most max_per_second."""

    def __init__(self, max_per_second: float = 5.0, clock=time.monotonic, sleep=time.sleep):
        self.interval = 1.0 / check_rate(max_per_second)
        self._clock = clock
        self._sleep = sleep
        self._next_ok = clock()

    def wait(self):
        now = self._clock()
        if now < self._next_ok:
            self._sleep(self._next_ok - now)
            now = self._next_ok
        self._next_ok = now + self.interval


def _http_get(url, params, timeout):
    """GET url with params added to its query: (status, body bytes).

    An HTTP error status is returned; any other failure, a non-HTTP URL or
    a garbled reply included, raises OSError. urllib.request is imported
    here so that only fetch pays for its import (about 15 ms).
    """
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    full_url = f"{url}{'&' if '?' in url else '?'}{urllib.parse.urlencode(params)}"
    try:
        if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
            raise urllib.error.URLError(f"not an HTTP URL: {url!r}")
        try:
            with urllib.request.urlopen(full_url, timeout=timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
    except (ValueError, http.client.HTTPException) as exc:
        raise urllib.error.URLError(exc) from exc


def _flatten(address: str, source: str) -> str:
    """One Solidity text from an explorer SourceCode field.

    A multi-file source is JSON: `{{standard JSON input}}` with the files
    under "sources", or `{"A.sol": {"content": ...}}`. Its files are joined
    in sorted path order, each after a `// File: "<path>"` line.
    """
    if not source.startswith("{"):
        return source
    if source.startswith("{{") and source.endswith("}}"):
        source = source[1:-1]
    try:
        doc = json.loads(source)
    except (ValueError, RecursionError):
        doc = None
    files = doc.get("sources", doc) if isinstance(doc, dict) else None
    if not (isinstance(files, dict) and files and all(
        isinstance(f, dict) and isinstance(f.get("content"), str) for f in files.values()
    )):
        raise NetworkError(f"{address}: SourceCode is neither Solidity nor a multi-file source")
    return "\n".join(f"// File: {json.dumps(path)}\n{files[path]['content']}" for path in sorted(files))


def fetch_contract(
    address: str,
    api_key: str,
    corpus_dir,
    base_url: str = DEFAULT_EXPLORER_URL,
    rate_budget: RateBudget | None = None,
    retries: int = 3,
    _sleep=time.sleep,
) -> SourceContract:
    """Fetch one verified source from the block explorer and persist it.

    Malformed addresses are rejected before any network traffic. Transient
    failures retry with exponential backoff (1 s base); persistent rate
    limiting raises RateLimited, a transport failure or a response of the
    wrong shape raises NetworkError, and a verified-but-empty result raises
    NotVerified. A multi-file source is written as one file (see _flatten).
    """
    if not ADDRESS_RE.fullmatch(address):
        raise ValueError(f"malformed address: {address!r}")
    rate_budget = rate_budget or RateBudget()
    params = {
        "module": "contract",
        "action": "getsourcecode",
        "address": address,
        "apikey": api_key,
    }
    last_error: Exception = NetworkError(f"no response for {address}")
    for attempt in range(retries + 1):
        if attempt:
            _sleep(1.0 * 2 ** (attempt - 1))
        rate_budget.wait()
        try:
            status, body = _http_get(base_url, params=params, timeout=30)
        except OSError as exc:
            last_error = NetworkError(f"{address}: {exc}")
            continue
        if status == 429 or status >= 500:
            kind = RateLimited if status == 429 else NetworkError
            last_error = kind(f"{address}: HTTP {status}")
            continue
        if status != 200:
            raise NetworkError(f"{address}: HTTP {status}")
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError):
            payload = None
        if not isinstance(payload, dict):
            raise NetworkError(f"{address}: explorer response is not a JSON object")
        result = payload.get("result")
        if payload.get("status") == "0":
            note = f"{payload.get('message', '')} {result}".lower()
            if "rate limit" in note:
                last_error = RateLimited(f"{address}: {note.strip()}")
                continue
            raise NetworkError(f"{address}: explorer said {note.strip()!r}")
        entry = result[0] if isinstance(result, list) and result else None
        if not isinstance(entry, dict) or not isinstance(entry.get("SourceCode"), str):
            raise NetworkError(f"{address}: explorer result has no SourceCode string")
        if not entry["SourceCode"].strip():
            raise NotVerified(f"no verified source for {address}")
        source = _flatten(address, entry["SourceCode"])
        corpus_dir = Path(corpus_dir)
        corpus_dir.mkdir(parents=True, exist_ok=True)
        try:
            data = source.encode("utf-8")
        except UnicodeEncodeError:
            raise NetworkError(f"{address}: SourceCode is not valid Unicode") from None
        out = corpus_dir / f"{address}.sol"
        out.write_bytes(data)
        return SourceContract(out.name, source)
    raise last_error
