"""Cross-corpus scanning of signatures and version-evolution analysis.

scan() matches every signature exemplar against every eligible fragment
of a target corpus under one clone configuration. Each fragment's lines
come from the run's NormalizationMemo, keyed by its exact text and name,
and a normalized sequence not met before is decided against every
exemplar at once by clone_engine.match_exemplars; the line window and the
threshold apply only in clone_engine. The report carries the raw
detections, per-type instance counts (distinct target fragments), clone
classes over the union of exemplars and detected fragments, and
wall-clock timing per contract, for the cross-class phase and for the
whole scan. Timing excludes corpus loading and lives in its own section
so the detection body stays deterministic.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .clone_engine import CloneConfig, class_row, clone_classes, match_exemplars
from .corpus import Corpus, SourceContract
from .errors import EmptySignatureSet
from . import jsonout, normalize
from .extractor import FragmentRef, FunctionFragment
from .normalize import NormalizationMemo
from .signatures import SignatureSet, VulnerabilityType

_ALL_TYPES = [t.name for t in VulnerabilityType]


@dataclass(frozen=True)
class Detection:
    sig_id: str
    vuln_type: VulnerabilityType
    target: FragmentRef
    similarity: float

    def to_dict(self) -> dict:
        return {
            "sig_id": self.sig_id,
            "vuln_type": self.vuln_type.name,
            "contract_id": self.target.contract_id,
            "function": self.target.name,
            "start_line": self.target.start_line,
            "end_line": self.target.end_line,
            "similarity": self.similarity,
        }


@dataclass
class ScanReport:
    config: dict
    detections: list[Detection]
    classes: list[dict]
    per_contract_ms: list[float]
    cross_classes_ms: float
    wall_ms: float  # elapsed time of scan(), both phases together

    @property
    def per_type_instances(self) -> dict[str, int]:
        return count_instances(self)

    @property
    def contract_count(self) -> int:
        return len(self.per_contract_ms)

    @property
    def total_ms(self) -> float:
        return sum(self.per_contract_ms)

    @property
    def average_ms(self) -> float | None:
        return self.total_ms / self.contract_count if self.per_contract_ms else None

    def body_dict(self) -> dict:
        """Everything deterministic: the report minus its timing section."""
        return {
            "config": self.config,
            "detections": [d.to_dict() for d in self.detections],
            "per_type_instances": self.per_type_instances,
            "classes": self.classes,
        }

    def to_dict(self) -> dict:
        out = self.body_dict()
        out["timing"] = {
            "per_contract_ms": self.per_contract_ms,
            "total_ms": self.total_ms,
            "average_ms": self.average_ms,
            "cross_classes_ms": self.cross_classes_ms,
            "wall_ms": self.wall_ms,
        }
        return out

    def to_json(self) -> str:
        return jsonout.dumps(self.to_dict())


_WORKER = {}


class _Payload(list):
    """One (sig_id, vuln_type, exemplar) entry per signature, the run's
    NormalizationMemo as .memo and a match table as .matches.

    matches maps each normalized sequence the scan meets to
    match_exemplars(lines, exemplar lines, cfg), the (entry index,
    similarity) of every signature it clones; a sequence outside the line
    window maps to (). A fragment text repeated across the corpus thus
    costs a memo and a match-table lookup after its first occurrence, and
    a sequence that several texts normalize to is decided once against
    all signatures. A payload serves one config; the payloads of a sweep
    share one memo, and every worker process holds its own copy of them.
    """

    def __init__(self, sigs: SignatureSet, cfg: CloneConfig, memo: NormalizationMemo):
        if not len(sigs):
            raise EmptySignatureSet("scan needs at least one signature")
        super().__init__((s.sig_id, s.vuln_type, s.exemplar_in(cfg.mode)) for s in sigs)
        self.memo = memo
        self.exemplars = [exemplar.lines for _, _, exemplar in self]
        self.matches: dict[tuple, tuple] = {}

    def decide(self, fragment: FunctionFragment, cfg: CloneConfig) -> tuple[tuple, tuple]:
        """(normalized lines, matches) of a fragment, normalized and matched on a miss."""
        lines = self.memo.lines(fragment, cfg.mode)
        found = self.matches.get(lines)
        if found is None:
            found = self.matches[lines] = match_exemplars(lines, self.exemplars, cfg)
        return lines, found


def _scan_source(contract_id: str, source_text: str, payload, cfg: CloneConfig):
    """Scan one contract; returns (detections, {detected ref: its lines}, elapsed ms)."""
    started = time.perf_counter()
    decide = payload.decide
    detections = []
    hits: dict[FragmentRef, tuple] = {}
    # normalize.extract_functions: the one extraction seam of every command.
    for fragment in normalize.extract_functions(SourceContract(contract_id, source_text)):
        lines, found = decide(fragment, cfg)
        if not found:
            continue
        ref = fragment.ref
        for k, sim in found:
            sig_id, vuln_type, _ = payload[k]
            detections.append(Detection(sig_id=sig_id, vuln_type=vuln_type, target=ref, similarity=sim))
        hits[ref] = lines
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return detections, hits, elapsed_ms


def _init_worker(payloads, cfgs):
    _WORKER["cells"] = list(zip(payloads, cfgs))


def _scan_task(args):
    k, contract_id, source_text = args
    payload, cfg = _WORKER["cells"][k]
    return _scan_source(contract_id, source_text, payload, cfg)


class _Node(NamedTuple):
    """A member of a cross class: a signature exemplar or a target fragment.

    An exemplar and a target that share a ref (a signature file scanned as
    a corpus) stay two members. Nodes sort as their refs, signature first
    on a tie, and read as their ref otherwise (uid, contract_id, ...), so
    class ids and rows are those of the refs.
    """

    ref: FragmentRef
    role: str  # "signature" or "target"

    def __getattr__(self, attr):
        return getattr(self.ref, attr)


def _cross_classes(payload, hits, cfg: CloneConfig) -> list[dict]:
    """Clone classes over exemplars plus detected fragments, serialized.

    Only classes containing at least one signature and one target fragment
    survive; each class dict records the vulnerability types of its
    signature members and every member's similarity to the canonically
    first signature exemplar.
    """
    table: dict[_Node, tuple] = {}
    sig_types: dict[_Node, list] = {}
    for sig_id, vuln_type, exemplar in payload:
        node = _Node(exemplar.origin, "signature")
        table[node] = exemplar.lines
        sig_types.setdefault(node, []).append(vuln_type.name)
    for ref, lines in hits.items():
        table[_Node(ref, "target")] = lines

    out = []
    for cls in clone_classes(table, cfg):
        sig_members = [m for m in cls.members if m.role == "signature"]
        if not sig_members or len(sig_members) == len(cls.members):
            continue
        row = class_row(cls, table, table[sig_members[0]])
        row["vuln_types"] = sorted({t for m in sig_members for t in sig_types[m]})
        out.append(row)
    return out


def _scan_contracts(target: Corpus, payloads, cfgs, jobs: int):
    """The sweep: yields the _scan_source results of every contract of
    target, in corpus order, for one cell (payloads[k], cfgs[k]) at a time.

    jobs caps the workers. One pool serves every cell, so its workers keep
    their copies of the memo and the match tables from one cell to the next.
    """
    workers = min(jobs, len(target), os.cpu_count() or 1)
    if workers <= 1:
        for payload, cfg in zip(payloads, cfgs):
            yield [_scan_source(c.id, c.source_text, payload, cfg) for c in target]
        return
    # Imported here: it loads multiprocessing, which only --jobs needs.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(target) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(payloads, cfgs)
    ) as pool:
        for k in range(len(cfgs)):
            tasks = [(k, c.id, c.source_text) for c in target]
            yield list(pool.map(_scan_task, tasks, chunksize=chunk))


def scan(target: Corpus, sigs: SignatureSet, cfg: CloneConfig, jobs: int = 1) -> ScanReport:
    """Match every signature against every fragment of the target corpus."""
    started = time.perf_counter()
    payload = _Payload(sigs, cfg, NormalizationMemo())
    (results,) = _scan_contracts(target, [payload], [cfg], jobs)
    detections: list[Detection] = []
    hits: dict[FragmentRef, tuple] = {}
    for dets, frag_hits, _ in results:
        detections.extend(dets)
        hits.update(frag_hits)
    detections.sort(key=lambda d: (d.target, d.sig_id))

    classes_started = time.perf_counter()
    classes = _cross_classes(payload, hits, cfg)
    finished = time.perf_counter()
    return ScanReport(
        config={
            "corpus": target.label,
            "signature_count": len(sigs),
            "signatures": sorted(s.sig_id for s in sigs),
            **cfg.to_dict(),
        },
        detections=detections,
        classes=classes,
        per_contract_ms=[elapsed for _, _, elapsed in results],
        cross_classes_ms=(finished - classes_started) * 1000.0,
        wall_ms=(finished - started) * 1000.0,
    )


def count_instances(report: ScanReport) -> dict[str, int]:
    """Distinct detected target fragments per vulnerability type."""
    seen: dict[str, set] = {name: set() for name in _ALL_TYPES}
    for d in report.detections:
        seen[d.vuln_type.name].add(d.target)
    return {name: len(refs) for name, refs in seen.items()}


def write_catalog_csv(report: ScanReport, corpus: Corpus, path) -> None:
    """One CSV row per detection, with the contract's version bucket."""
    import csv

    bucket_of = {c.id: (c.version.bucket if c.version else "unknown") for c in corpus}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["contract_id", "vuln_type", "sig_id", "function", "lines", "similarity", "solidity_bucket"]
        )
        for d in report.detections:
            writer.writerow(
                [
                    d.target.contract_id,
                    d.vuln_type.name,
                    d.sig_id,
                    d.target.name,
                    f"{d.target.start_line}-{d.target.end_line}",
                    f"{d.similarity:.4f}",
                    bucket_of.get(d.target.contract_id, "unknown"),
                ]
            )


@dataclass
class EvolutionReport:
    buckets: list[str]
    configs: list[dict]
    cells: list[dict]
    cross_bucket_classes: list[dict] = field(default_factory=list)

    def cell(self, mode: str, bucket: str, vuln_type: str) -> dict | None:
        for c in self.cells:
            if c["mode"] == mode and c["bucket"] == bucket and c["vuln_type"] == vuln_type:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "buckets": self.buckets,
            "configs": self.configs,
            "cells": self.cells,
            "cross_bucket_classes": self.cross_bucket_classes,
        }

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["mode", "threshold_percent", "vuln_type", "bucket", "class_count", "min_similarity_percent"]
            )
            for c in self.cells:
                writer.writerow(
                    [
                        c["mode"],
                        c["threshold_percent"],
                        c["vuln_type"],
                        c["bucket"],
                        c["class_count"] if c["class_count"] else "NA",
                        "NA" if c["min_similarity"] is None else str(int(c["min_similarity"] * 100 + 0.5)),
                    ]
                )


def _threshold_percent(cfg: CloneConfig):
    pct = cfg.max_difference * 100
    return int(pct) if pct.denominator == 1 else float(pct)


def analyze_evolution(
    buckets: dict[str, Corpus],
    sigs: SignatureSet,
    cfg_range,
    jobs: int = 1,
) -> EvolutionReport:
    """Per (bucket x type x mode): clone-class count and minimum similarity.

    Classes are computed independently per bucket. A separate pass over
    the whole corpus flags classes that would span buckets, so nothing is
    silently double-counted. The configs are the cells of one sweep, which
    scans each contract once per config: a contract's scan result does not
    depend on the rest of the corpus, so every bucket's cells and the
    cross-bucket check read the same results. One NormalizationMemo serves
    every config, so each distinct fragment text is pretty-printed once per
    process; under jobs > 1, one worker pool serves every config.
    """
    bucket_names = list(buckets)
    bucket_of = {c.id: bucket for bucket, corpus in buckets.items() for c in corpus}
    union = Corpus(
        label="all-buckets",
        contracts=[c for bucket in bucket_names for c in buckets[bucket]],
    )
    memo = NormalizationMemo()
    payloads = [_Payload(sigs, cfg, memo) for cfg in cfg_range]
    cells = []
    cross = []
    for results, cfg, payload in zip(_scan_contracts(union, payloads, cfg_range, jobs), cfg_range, payloads):
        pct = _threshold_percent(cfg)
        dets = {bucket: [] for bucket in bucket_names}
        hits = {bucket: {} for bucket in bucket_names}
        detected: dict[FragmentRef, tuple] = {}
        for contract, (found, frag_hits, _) in zip(union, results):
            dets[bucket_of[contract.id]] += found
            hits[bucket_of[contract.id]].update(frag_hits)
            detected.update(frag_hits)
        for bucket in bucket_names:
            classes = _cross_classes(payload, hits[bucket], cfg)
            for name in _ALL_TYPES:
                sims = [d.similarity for d in dets[bucket] if d.vuln_type.name == name]
                cells.append(
                    {
                        "mode": cfg.mode.value,
                        "threshold_percent": pct,
                        "vuln_type": name,
                        "bucket": bucket,
                        "class_count": sum(name in cls["vuln_types"] for cls in classes),
                        "min_similarity": min(sims, default=None),
                        "detections": len(sims),
                    }
                )

        # A member counts for its bucket if it is a detected fragment; an
        # exemplar is none, even where its contract id is a corpus one.
        for cls in _cross_classes(payload, detected, cfg):
            spanned = sorted(
                {
                    bucket_of[m["contract_id"]]
                    for m in cls["members"]
                    if FragmentRef(m["contract_id"], m["start_line"], m["end_line"], m["name"]) in detected
                }
            )
            if len(spanned) > 1:
                cross.append(
                    {"class_id": cls["class_id"], "mode": cfg.mode.value, "buckets": spanned}
                )
    return EvolutionReport(
        buckets=bucket_names,
        configs=[{**cfg.to_dict(), "threshold_percent": _threshold_percent(cfg)} for cfg in cfg_range],
        cells=cells,
        cross_bucket_classes=cross,
    )
