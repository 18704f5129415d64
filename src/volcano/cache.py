"""Incremental analysis cache for within-corpus clone detection.

The cache is one JSON file in a `.volcano-cache/` directory, a table of
sequences with records that point into it. `sequences` lists the sorted
distinct normalized line sequences, in the configured mode only, each
once. `fragments` maps a content digest (so renamed or duplicated files
reuse work) to its records [name, start_line, end_line, seq], seq an
index into `sequences`. A clone decision depends only on two distinct
line sequences, so `clones` keeps one entry [i, j, lcs] per clone pair of
them, i < j indices into `sequences`. In memory a record is (name,
start_line, end_line, lines), where the records loaded from one entry
share one tuple, and a clone is (lines_a, lines_b, lcs), the form the
clone engine takes and returns; only load and save convert.

incremental_sequences re-extracts only a contract whose digest changed and
re-runs LCS only for pairs with a sequence the cache does not hold; the
result is extensionally equal to a from-scratch analysis of the current
corpus. incremental_scan expands its decisions into fragment pairs.

A cache written under a different clone configuration is an error; an
unreadable cache, or one written by different extraction, normalization,
kernel or cache code, is treated as absent (full analysis, with a warning).
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .clone_engine import CloneConfig, _fragment_pairs, _sequence_classes, _sequence_pairs
from .corpus import Corpus
from .errors import CacheConfigMismatch
from .extractor import FragmentRef
from .normalize import NormalizationMemo

log = logging.getLogger(__name__)

# The modules whose code decides what a cache holds.
VERSIONED_SOURCES = [
    Path(__file__).with_name(name)
    for name in ("extractor.py", "normalize.py", "clone_engine.py", "cache.py")
]


def code_version(paths) -> str:
    """Short digest of the given source files, in order."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()[:16]


CACHE_VERSION = code_version(VERSIONED_SOURCES)
CACHE_FILE = "analysis.json"
DEFAULT_CACHE_DIR = ".volcano-cache"

# (name, start_line, end_line, lines): a one-mode NormalizationMemo's record
Record = tuple[str, int, int, tuple[str, ...]]


def _held(fragments: dict[str, list[Record]]) -> set[tuple[str, ...]]:
    """The distinct line sequences of fragment records."""
    return {r[3] for records in fragments.values() for r in records}


def _sequence_table(sequences) -> list[tuple[str, ...]]:
    """The saved sequences as interned tuples, checked in one pass: each a
    non-empty list of str (sys.intern raises TypeError on any other line),
    the table strictly sorted."""
    if not (isinstance(sequences, list) and all(isinstance(s, list) and s for s in sequences)):
        raise ValueError("a sequence is not a non-empty list")
    table = [tuple(map(sys.intern, s)) for s in sequences]
    if not all(map(operator.lt, table, table[1:])):
        raise ValueError("the sequence table is not strictly sorted")
    return table


def _records(fragments, table: list[tuple[str, ...]]) -> dict[str, list[Record]]:
    """Saved fragment records with each seq resolved to its table entry;
    every entry must be used by some record."""
    if not isinstance(fragments, dict):
        raise ValueError("the fragment table is not a dict")
    n = len(table)
    used = bytearray(n)
    restored = {}
    for digest, saved in fragments.items():
        if not isinstance(saved, list):
            raise ValueError("a digest's records are not a list")
        records = []
        for name, start, end, seq in saved:  # ValueError on a record of the wrong arity
            if not (type(name) is str and type(start) is int and type(end) is int
                    and type(seq) is int and 0 <= seq < n):
                raise ValueError("a fragment record has the wrong shape or names no sequence")
            used[seq] = 1
            records.append((name, start, end, table[seq]))
        restored[digest] = records
    if not all(used):
        raise ValueError("a sequence is used by no fragment record")
    return restored


@dataclass
class AnalysisCache:
    config_digest: str
    fragments: dict[str, list[Record]] = field(default_factory=dict)  # digest -> records
    clones: list[tuple] = field(default_factory=list)  # (lines_a, lines_b, lcs)

    @classmethod
    def empty(cls, cfg: CloneConfig) -> "AnalysisCache":
        return cls(config_digest=cfg.digest())

    @classmethod
    def load(cls, cache_dir) -> "AnalysisCache | None":
        path = Path(cache_dir) / CACHE_FILE
        if not path.exists():
            return None
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            if blob["version"] != CACHE_VERSION:
                log.warning("cache %s has version %s, ignoring it", path, blob["version"])
                return None
            clones = blob["clones"]
            if not isinstance(blob["config_digest"], str):
                raise ValueError("the config digest is not a str")
            seqs = _sequence_table(blob["sequences"])
            fragments = _records(blob["fragments"], seqs)
            if not isinstance(clones, list) or not all(
                isinstance(c, list)
                and len(c) == 3
                and all(type(v) is int for v in c)
                and 0 <= c[0] < c[1] < len(seqs)
                and 0 < c[2] <= min(len(seqs[c[0]]), len(seqs[c[1]]))
                for c in clones
            ):
                raise ValueError("a clone entry names no pair of held sequences or has an impossible LCS")
            return cls(
                config_digest=blob["config_digest"],
                fragments=fragments,
                clones=[(seqs[i], seqs[j], lcs) for i, j, lcs in clones],
            )
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            log.warning("cache %s is unreadable (%s); falling back to full analysis", path, exc)
            return None

    def save(self, cache_dir) -> None:
        """Write the cache through a temporary file of this save's own, so
        that saves into one directory from several processes never clash."""
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        seqs = sorted(_held(self.fragments))
        rank = {seq: i for i, seq in enumerate(seqs)}
        blob = {
            "version": CACHE_VERSION,
            "config_digest": self.config_digest,
            "sequences": seqs,
            "fragments": {
                digest: [[name, start, end, rank[lines]] for name, start, end, lines in records]
                for digest, records in self.fragments.items()
            },
            "clones": sorted(sorted((rank[a], rank[b])) + [lcs] for a, b, lcs in self.clones),
        }
        text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix="analysis.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.write(text)
            os.replace(tmp, cache_dir / CACHE_FILE)
        except BaseException:
            os.unlink(tmp)
            raise

    @staticmethod
    def clear(cache_dir) -> None:
        path = Path(cache_dir) / CACHE_FILE
        if path.exists():
            path.unlink()


def fragment_index(cache: AnalysisCache, corpus: Corpus) -> dict:
    """The fragment table {origin: lines} of a corpus, straight from cache records."""
    table = {}
    for contract in corpus:
        for name, start, end, lines in cache.fragments.get(contract.content_digest, ()):
            table[FragmentRef(contract.id, start, end, name)] = lines
    return table


def incremental_sequences(cache: AnalysisCache, corpus: Corpus, cfg: CloneConfig):
    """(table, decisions): the fragment table of the current corpus and the
    clone decisions _sequence_pairs makes over it, reusing cached work.

    corpus is the full current snapshot, diffed against the cache by content
    digest; each contract to re-extract goes through one memo's records. Every
    sequence the cache holds brings its clone decisions, so a pair of two
    such sequences costs no LCS, whichever contract carries it now: a copied,
    renamed or partly edited contract recomputes only the pairs of its new
    sequences. The table is fragment_index of the updated cache. The cache
    object is updated in place to describe the current corpus, its clones
    the decisions' clone pairs as they are; callers persist it with save().
    """
    if cache.config_digest != cfg.digest():
        raise CacheConfigMismatch(
            "cache was built under a different configuration; run `volcano cache clear`"
        )
    known = _held(cache.fragments)
    memo = NormalizationMemo((cfg.mode,))
    records: dict[str, list[Record]] = {}
    for contract in corpus:
        digest = contract.content_digest
        if digest not in records:
            cached = cache.fragments.get(digest)
            records[digest] = memo.records(contract) if cached is None else cached
    cache.fragments = records

    table = fragment_index(cache, corpus)
    decisions = _sequence_pairs(table, cfg, known, cache.clones)
    cache.clones = decisions[2]
    return table, decisions


def incremental_scan(cache: AnalysisCache, corpus: Corpus, cfg: CloneConfig):
    """Clone pairs, classes and fragment table of the current corpus:
    incremental_sequences with its decisions expanded into fragment pairs."""
    table, decisions = incremental_sequences(cache, corpus, cfg)
    return _fragment_pairs(*decisions), _sequence_classes(*decisions), table
