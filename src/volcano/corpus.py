"""Corpus handling: loading .sol trees, pragma bucketing, dedupe, fetching.

A corpus is an ordered list of contracts; order is the lexicographic order
of paths relative to the root, so two loads of the same tree are
byte-identical. Version bucketing keys each contract by the lowest
compiler version its first pragma admits: `^0.4.24` and
`>=0.4.22 <0.6.0` both land in bucket ^0.4.
"""

from __future__ import annotations

import hashlib
import logging
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

from .errors import MissingRoot, NetworkError, NotVerified, RateLimited
from .extractor import _mask

log = logging.getLogger(__name__)

DEFAULT_EXPLORER_URL = "https://api.etherscan.io/api"
EXPLORER_KEY_ENV = "VOLCANO_EXPLORER_KEY"

_BIG = 10 ** 9
_PRAGMA_RE = re.compile(r"pragma\s+solidity\s+([^;]+);")
_CLAUSE_RE = re.compile(r"(\^|~|>=|<=|>|<|=)?\s*v?(\d+)(?:\.(\d+|x|\*))?(?:\.(\d+|x|\*))?")
_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]{40}")


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
    id: str
    source_text: str
    content_digest: str
    version: SolidityVersion | None = None
    path: str = ""


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


def _clause_admits(op: str, maj: int, minor: int | None, patch: int | None, v: tuple) -> bool:
    lo = (maj, minor or 0, patch or 0)
    if op in ("", "="):
        hi = (maj, _BIG if minor is None else minor, _BIG if patch is None else patch)
        return lo <= v <= hi
    if op == "^":
        if maj > 0:
            hi = (maj + 1, 0, 0)
        elif minor is None:
            hi = (maj + 1, 0, 0)
        elif minor > 0 or patch is None:
            hi = (0, minor + 1, 0)
        else:
            hi = (0, 0, (patch or 0) + 1)
        return lo <= v < hi
    if op == "~":
        hi = (maj + 1, 0, 0) if minor is None else (maj, minor + 1, 0)
        return lo <= v < hi
    if op == ">=":
        return v >= lo
    if op == ">":
        if patch is not None:
            return v > (maj, minor or 0, patch)
        if minor is not None:
            return v >= (maj, minor + 1, 0)
        return v >= (maj + 1, 0, 0)
    if op == "<=":
        return v <= (maj, _BIG if minor is None else minor, _BIG if patch is None else patch)
    if op == "<":
        return v < lo
    return False


def _lower_candidate(op: str, maj: int, minor: int | None, patch: int | None):
    if op in ("", "=", "^", "~", ">="):
        return (maj, minor or 0, patch or 0)
    if op == ">":
        if patch is not None:
            return (maj, minor or 0, patch + 1)
        if minor is not None:
            return (maj, minor + 1, 0)
        return (maj + 1, 0, 0)
    return None  # upper bounds contribute no lower edge


def parse_pragma(source_text: str) -> SolidityVersion | None:
    """Lowest compiler version admitted by the first pragma, or None.

    The search runs over masked text so a pragma inside a comment or
    string never wins. Constraints may combine comparator clauses
    (conjunction) and `||` alternatives; the result is the minimum version
    satisfying any alternative.
    """
    masked = _mask(source_text, mask_strings=True, warn_to=None)
    m = _PRAGMA_RE.search(masked)
    if not m:
        return None
    raw = m.group(1).strip()
    best = None
    for alternative in raw.split("||"):
        clauses = [
            (c.group(1) or "", int(c.group(2)), _num(c.group(3)), _num(c.group(4)))
            for c in _CLAUSE_RE.finditer(alternative)
        ]
        if not clauses:
            continue
        candidates = {(0, 0, 0)}
        for op, maj, minor, patch in clauses:
            cand = _lower_candidate(op, maj, minor, patch)
            if cand is not None:
                candidates.add(cand)
        admitted = [
            v for v in candidates
            if all(_clause_admits(op, maj, minor, patch, v) for op, maj, minor, patch in clauses)
        ]
        if admitted:
            lowest = min(admitted)
            if best is None or lowest < best:
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
        data = path.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            skipped += 1
            log.warning("skipping %s: not valid UTF-8", path)
            continue
        if not text:
            skipped += 1
            log.warning("skipping %s: empty file", path)
            continue
        contracts.append(
            SourceContract(
                id=path.relative_to(root).as_posix(),
                source_text=text,
                content_digest=hashlib.sha256(data).hexdigest(),
                version=parse_pragma(text),
                path=str(path),
            )
        )
    if not contracts:
        log.warning("empty corpus under %s", root)
    return Corpus(label=label or root.name, contracts=contracts, skipped=skipped)


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


class RateBudget:
    """Spaces outgoing requests to at most max_per_second."""

    def __init__(self, max_per_second: float = 5.0, clock=time.monotonic, sleep=time.sleep):
        self.interval = 1.0 / max_per_second
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
    return requests.get(url, params=params, timeout=timeout)


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
    limiting raises RateLimited, anything else transport-shaped raises
    NetworkError, and a verified-but-empty result raises NotVerified.
    """
    if not _ADDRESS_RE.fullmatch(address):
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
            resp = _http_get(base_url, params=params, timeout=30)
        except requests.RequestException as exc:
            last_error = NetworkError(f"{address}: {exc}")
            continue
        if resp.status_code == 429 or resp.status_code >= 500:
            kind = RateLimited if resp.status_code == 429 else NetworkError
            last_error = kind(f"{address}: HTTP {resp.status_code}")
            continue
        if resp.status_code != 200:
            raise NetworkError(f"{address}: HTTP {resp.status_code}")
        payload = resp.json()
        result = payload.get("result")
        if payload.get("status") == "0":
            note = f"{payload.get('message', '')} {result}".lower()
            if "rate limit" in note:
                last_error = RateLimited(f"{address}: {note.strip()}")
                continue
            raise NetworkError(f"{address}: explorer said {note.strip()!r}")
        entry = result[0] if isinstance(result, list) and result else {}
        source = entry.get("SourceCode") or ""
        if not source.strip():
            raise NotVerified(f"no verified source for {address}")
        corpus_dir = Path(corpus_dir)
        corpus_dir.mkdir(parents=True, exist_ok=True)
        data = source.encode("utf-8")
        out = corpus_dir / f"{address}.sol"
        out.write_bytes(data)
        return SourceContract(
            id=out.name,
            source_text=source,
            content_digest=hashlib.sha256(data).hexdigest(),
            version=parse_pragma(source),
            path=str(out),
        )
    raise last_error
