"""Incremental analysis cache for within-corpus clone detection.

The cache is one JSON file in a `.volcano-cache/` directory: fragment
records, with lines normalized in the configured mode only, keyed by
content digest (so renamed or duplicated files reuse work), the
id-to-digest binding of the last run, and the clone decisions found.
A clone decision depends only on two distinct line sequences, so the
cache keeps one entry (lines_a, lines_b, lcs) per clone pair of distinct
sequences; on disk the entry is [i, j, lcs], i < j ranks of the two in
the sorted distinct sequences of the records, and only load and save
convert. incremental_sequences re-extracts only contracts whose digest
changed (and rebuilds any record that lacks the configured mode) and
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
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .clone_engine import CloneConfig, _fragment_pairs, _sequence_classes, _sequence_pairs
from .corpus import Corpus, SourceContract
from .errors import CacheConfigMismatch
from .extractor import FragmentRef
from .normalize import NormalizationMemo, NormalizedFragment, RenamingMode, normalize_contract

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


def _fragment_records(contract: SourceContract, mode: RenamingMode, memo: NormalizationMemo) -> list[dict]:
    return [
        {
            "name": nf.origin.name,
            "start_line": nf.origin.start_line,
            "end_line": nf.origin.end_line,
            "lines": {mode.value: list(nf.lines)},
        }
        for nf in normalize_contract(contract, mode, memo)
    ]


def _is_record(record) -> bool:
    """Whether record has the shape _fragment_records writes."""
    if not isinstance(record, dict):
        return False
    lines = record.get("lines")
    return (
        isinstance(record.get("name"), str)
        and type(record.get("start_line")) is int
        and type(record.get("end_line")) is int
        and isinstance(lines, dict)
        and len(lines) == 1
        and all(
            isinstance(seq, list) and all(isinstance(line, str) for line in seq)
            for seq in lines.values()
        )
    )


def _held(fragments: dict[str, list[dict]]) -> set[tuple[str, ...]]:
    """The distinct line sequences of fragment records; a saved clone names two by rank in sorted order."""
    return {tuple(seq) for records in fragments.values() for r in records for seq in r["lines"].values()}


@dataclass
class AnalysisCache:
    config_digest: str
    contracts: dict[str, str] = field(default_factory=dict)  # id -> content digest
    fragments: dict[str, list[dict]] = field(default_factory=dict)  # digest -> records
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
            contracts, fragments, clones = blob["contracts"], blob["fragments"], blob["clones"]
            if not (
                isinstance(blob["config_digest"], str)
                and isinstance(contracts, dict)
                and all(isinstance(d, str) for d in contracts.values())
                and isinstance(fragments, dict)
                and all(isinstance(rs, list) and all(map(_is_record, rs)) for rs in fragments.values())
            ):
                raise ValueError("the config digest, a contract or a fragment record has the wrong shape")
            seqs = sorted(_held(fragments))
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
                contracts=contracts,
                fragments=fragments,
                clones=[(seqs[i], seqs[j], lcs) for i, j, lcs in clones],
            )
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            log.warning("cache %s is unreadable (%s); falling back to full analysis", path, exc)
            return None

    def save(self, cache_dir) -> None:
        """Write the cache; each clone is saved as [i, j, lcs], i < j ranks of its sequences."""
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        rank = {seq: i for i, seq in enumerate(sorted(_held(self.fragments)))}
        blob = {
            "version": CACHE_VERSION,
            "config_digest": self.config_digest,
            "contracts": self.contracts,
            "fragments": self.fragments,
            "clones": sorted(sorted((rank[a], rank[b])) + [lcs] for a, b, lcs in self.clones),
        }
        path = cache_dir / CACHE_FILE
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(blob, sort_keys=True), encoding="utf-8")
        tmp.replace(path)

    @staticmethod
    def clear(cache_dir) -> None:
        path = Path(cache_dir) / CACHE_FILE
        if path.exists():
            path.unlink()


def fragment_index(cache: AnalysisCache, corpus: Corpus, mode: RenamingMode):
    """Normalized fragments of a corpus straight from cache records, by origin."""
    index = {}
    for contract in corpus:
        for record in cache.fragments.get(contract.content_digest, []):
            ref = FragmentRef(
                contract_id=contract.id,
                start_line=record["start_line"],
                end_line=record["end_line"],
                name=record["name"],
            )
            lines = tuple(map(sys.intern, record["lines"][mode.value]))
            index[ref] = NormalizedFragment(origin=ref, mode=mode, lines=lines)
    return index


def incremental_sequences(cache: AnalysisCache, corpus: Corpus, cfg: CloneConfig):
    """(eligible, seq_pairs, index): the clone decisions of _sequence_pairs
    over the current corpus and its fragment index, reusing cached work.

    corpus is the full current snapshot, diffed against the cache by content
    digest; contracts to re-extract share one normalization memo. Every
    sequence the cache holds brings its clone decisions, so a pair of two
    such sequences costs no LCS, whichever contracts carry it now: a copied,
    renamed or partly edited contract recomputes only the pairs of its new
    sequences. The index is fragment_index of the updated cache. The cache
    object is updated in place to describe the current corpus; callers
    persist it with save().
    """
    if cache.config_digest != cfg.digest():
        raise CacheConfigMismatch(
            "cache was built under a different configuration; run `volcano cache clear`"
        )
    known = _held(cache.fragments)
    memo = NormalizationMemo()
    records: dict[str, list[dict]] = {}
    for contract in corpus:
        digest = contract.content_digest
        if digest in records:
            continue
        cached = cache.fragments.get(digest)
        if cached is None or not all(cfg.mode.value in r["lines"] for r in cached):
            cached = _fragment_records(contract, cfg.mode, memo)
        records[digest] = cached
    cache.contracts = {c.id: c.content_digest for c in corpus}
    cache.fragments = records

    index = fragment_index(cache, corpus, cfg.mode)
    eligible, seq_pairs = _sequence_pairs(index.values(), cfg, known, cache.clones)
    cache.clones = [
        (eligible[ga[0]].lines, eligible[gb[0]].lines, lcs) for ga, gb, lcs, _ in seq_pairs if ga is not gb
    ]
    return eligible, seq_pairs, index


def incremental_scan(cache: AnalysisCache, corpus: Corpus, cfg: CloneConfig):
    """Clone pairs, classes and fragment index of the current corpus:
    incremental_sequences with its decisions expanded into fragment pairs."""
    eligible, seq_pairs, index = incremental_sequences(cache, corpus, cfg)
    return _fragment_pairs(eligible, seq_pairs), _sequence_classes(eligible, seq_pairs), index
