"""Incremental analysis cache for within-corpus clone detection.

The cache is one JSON file in a `.volcano-cache/` directory: fragment
records, with lines normalized in the configured mode only, keyed by
content digest (so renamed or duplicated files reuse work), the
id-to-digest binding of the last run, and the clone pairs found.
incremental_scan re-extracts only contracts whose digest changed and
re-runs LCS only for pairs touching them; the result is extensionally
equal to a from-scratch analysis of the current corpus.

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

from .clone_engine import CloneConfig, ClonePair, cluster_classes, detect_pairs
from .corpus import Corpus, SourceContract
from .errors import CacheConfigMismatch
from .extractor import FragmentRef
from .normalize import NormalizedFragment, RenamingMode, normalize_contract

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


def _fragment_records(contract: SourceContract, mode: RenamingMode) -> list[dict]:
    return [
        {
            "name": nf.origin.name,
            "start_line": nf.origin.start_line,
            "end_line": nf.origin.end_line,
            "lines": {mode.value: list(nf.lines)},
        }
        for nf in normalize_contract(contract, mode)
    ]


def _ref_record(ref: FragmentRef) -> list:
    return [ref.contract_id, ref.start_line, ref.end_line, ref.name]


def _ref_from(record) -> FragmentRef:
    return FragmentRef(record[0], record[1], record[2], record[3])


@dataclass
class AnalysisCache:
    config_digest: str
    config: dict
    contracts: dict[str, str] = field(default_factory=dict)  # id -> content digest
    fragments: dict[str, list[dict]] = field(default_factory=dict)  # digest -> records
    pairs: list[ClonePair] = field(default_factory=list)

    @classmethod
    def empty(cls, cfg: CloneConfig) -> "AnalysisCache":
        return cls(config_digest=cfg.digest(), config=cfg.to_dict())

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
            pairs = [
                ClonePair(
                    left=_ref_from(p["left"]),
                    right=_ref_from(p["right"]),
                    similarity=p["lcs"] / p["max"],
                    lcs_len=p["lcs"],
                    max_len=p["max"],
                )
                for p in blob["pairs"]
            ]
            return cls(
                config_digest=blob["config_digest"],
                config=blob["config"],
                contracts=blob["contracts"],
                fragments=blob["fragments"],
                pairs=pairs,
            )
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            log.warning("cache %s is unreadable (%s); falling back to full analysis", path, exc)
            return None

    def save(self, cache_dir) -> None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        blob = {
            "version": CACHE_VERSION,
            "config_digest": self.config_digest,
            "config": self.config,
            "contracts": self.contracts,
            "fragments": self.fragments,
            "pairs": [
                {
                    "left": _ref_record(p.left),
                    "right": _ref_record(p.right),
                    "lcs": p.lcs_len,
                    "max": p.max_len,
                }
                for p in self.pairs
            ],
        }
        path = cache_dir / CACHE_FILE
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(blob, sort_keys=True), encoding="utf-8")
        tmp.replace(path)

    def clear(self, cache_dir) -> None:
        path = Path(cache_dir) / CACHE_FILE
        if path.exists():
            path.unlink()


def fragment_index(cache: AnalysisCache, corpus: Corpus, mode: RenamingMode):
    """Normalized fragments of a corpus straight from cache records, by origin.

    Fragments that share one origin (a nested Yul function declared on its
    enclosing function's line, under the same name) keep the last one.
    """
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


def incremental_scan(cache: AnalysisCache, changed_contracts: Corpus, cfg: CloneConfig):
    """Clone pairs and classes for the current corpus, reusing cached work.

    changed_contracts is the full current corpus snapshot; the diff against
    the cache (additions, modifications, removals) is taken here by content
    digest. The cache object is updated in place to describe the current
    corpus; callers persist it with save().
    """
    if cache.config_digest != cfg.digest():
        raise CacheConfigMismatch(
            "cache was built under a different configuration; run `volcano cache clear`"
        )
    current = {c.id: c for c in changed_contracts}
    unchanged = {
        cid for cid, c in current.items() if cache.contracts.get(cid) == c.content_digest
    }

    records: dict[str, list[dict]] = {}
    for contract in changed_contracts:
        digest = contract.content_digest
        if digest in records:
            continue
        cached = cache.fragments.get(digest)
        records[digest] = cached if cached is not None else _fragment_records(contract, cfg.mode)
    cache.contracts = {cid: c.content_digest for cid, c in current.items()}
    cache.fragments = records

    fragments = fragment_index(cache, changed_contracts, cfg.mode).values()
    reused = [
        p
        for p in cache.pairs
        if p.left.contract_id in unchanged and p.right.contract_id in unchanged
    ]
    fresh = detect_pairs(fragments, cfg, unchanged)
    cache.pairs = sorted(reused + fresh, key=lambda p: (p.left, p.right))
    return cache.pairs, cluster_classes(cache.pairs)
