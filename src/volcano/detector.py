"""Cross-corpus scanning of signatures and version-evolution analysis.

scan() matches every signature exemplar against every eligible fragment
of a target corpus under one clone configuration. The report carries the
raw detections, per-type instance counts (distinct target fragments),
clone classes over the union of exemplars and detected fragments, and
wall-clock timing per contract. Timing excludes corpus loading and lives
in its own section so the detection body stays deterministic.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .clone_engine import (
    CloneConfig,
    class_row,
    clone_lcs,
    cluster_classes,
    detect_pairs,
    within_window,
)
from .corpus import Corpus, SourceContract
from .errors import EmptySignatureSet
from .extractor import FragmentRef
from .normalize import NormalizedFragment, RenamingMode, normalize_contract
from .signatures import SignatureSet, VulnerabilityType

_ALL_TYPES = [t.name for t in VulnerabilityType]


@dataclass(frozen=True)
class Detection:
    sig_id: str
    vuln_type: VulnerabilityType
    target: FragmentRef
    similarity: float
    mode: RenamingMode
    threshold: Fraction

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
    per_type_instances: dict[str, int]
    classes: list[dict]
    per_contract_ms: list[float]
    total_ms: float
    average_ms: float | None
    contract_count: int

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
        }
        return out

    def canonical_json(self) -> str:
        """Canonical byte form of the deterministic body."""
        return json.dumps(self.body_dict(), sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_WORKER = {}


def _payload_of(sigs: SignatureSet, cfg: CloneConfig):
    if not len(sigs):
        raise EmptySignatureSet("scan needs at least one signature")
    return [(s.sig_id, s.vuln_type, s.exemplar_in(cfg.mode)) for s in sigs]


def _scan_source(contract_id: str, source_text: str, payload, cfg: CloneConfig):
    """Scan one contract; returns (detections, detected fragments, elapsed ms)."""
    started = time.perf_counter()
    contract = SourceContract(id=contract_id, source_text=source_text, content_digest="")
    detections = []
    hits: dict[FragmentRef, NormalizedFragment] = {}
    for nf in normalize_contract(contract, cfg.mode):
        lines = nf.lines
        if not within_window(len(lines), cfg):
            continue
        for sig_id, vuln_type, exemplar in payload:
            lcs = clone_lcs(lines, exemplar.lines, cfg)
            if lcs is not None:
                detections.append(
                    Detection(
                        sig_id=sig_id,
                        vuln_type=vuln_type,
                        target=nf.origin,
                        similarity=lcs / max(len(lines), len(exemplar.lines)),
                        mode=cfg.mode,
                        threshold=cfg.max_difference,
                    )
                )
                hits[nf.origin] = nf
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return detections, hits, elapsed_ms


def _init_worker(payload, cfg):
    _WORKER["payload"] = payload
    _WORKER["cfg"] = cfg


def _scan_task(args):
    contract_id, source_text = args
    return _scan_source(contract_id, source_text, _WORKER["payload"], _WORKER["cfg"])


def _cross_classes(payload, hits, cfg: CloneConfig) -> list[dict]:
    """Clone classes over exemplars plus detected fragments, serialized.

    Only classes containing at least one signature and one target fragment
    survive; each class dict records the vulnerability types of its
    signature members and every member's similarity to the canonically
    first signature exemplar.
    """
    by_ref: dict[FragmentRef, NormalizedFragment] = {}
    sig_types: dict[FragmentRef, list] = {}
    for sig_id, vuln_type, exemplar in payload:
        by_ref[exemplar.origin] = exemplar
        sig_types.setdefault(exemplar.origin, []).append(vuln_type.name)
    for ref, nf in hits.items():
        by_ref.setdefault(ref, nf)

    out = []
    for cls in cluster_classes(detect_pairs(list(by_ref.values()), cfg)):
        sig_members = [m for m in cls.members if m in sig_types]
        target_members = [m for m in cls.members if m not in sig_types]
        if not sig_members or not target_members:
            continue
        row = class_row(cls, by_ref, by_ref[sig_members[0]])
        row["vuln_types"] = sorted({t for m in sig_members for t in sig_types[m]})
        out.append(row)
    return out


def _scan_contracts(target: Corpus, payload, cfg: CloneConfig, jobs: int) -> list:
    """_scan_source over every contract of target, in corpus order."""
    if jobs > 1 and len(target) > 1:
        tasks = [(c.id, c.source_text) for c in target]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(payload, cfg)
        ) as pool:
            chunk = max(1, len(tasks) // (jobs * 4))
            return list(pool.map(_scan_task, tasks, chunksize=chunk))
    return [_scan_source(c.id, c.source_text, payload, cfg) for c in target]


def _assemble(target: Corpus, sigs: SignatureSet, payload, cfg: CloneConfig, results) -> ScanReport:
    """The scan report of target from the _scan_source results of its contracts."""
    detections: list[Detection] = []
    hits: dict[FragmentRef, NormalizedFragment] = {}
    per_contract_ms = []
    for dets, frag_hits, elapsed in results:
        detections.extend(dets)
        hits.update(frag_hits)
        per_contract_ms.append(elapsed)
    detections.sort(key=lambda d: (d.target, d.sig_id))

    total_ms = sum(per_contract_ms)
    report = ScanReport(
        config={
            "corpus": target.label,
            "signature_count": len(sigs),
            "signatures": sorted(s.sig_id for s in sigs),
            **cfg.to_dict(),
        },
        detections=detections,
        per_type_instances={},
        classes=_cross_classes(payload, hits, cfg),
        per_contract_ms=per_contract_ms,
        total_ms=total_ms,
        average_ms=(total_ms / len(per_contract_ms)) if per_contract_ms else None,
        contract_count=len(target),
    )
    report.per_type_instances = count_instances(report)
    return report


def scan(target: Corpus, sigs: SignatureSet, cfg: CloneConfig, jobs: int = 1) -> ScanReport:
    """Match every signature against every fragment of the target corpus."""
    payload = _payload_of(sigs, cfg)
    return _assemble(target, sigs, payload, cfg, _scan_contracts(target, payload, cfg, jobs))


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
    silently double-counted. Each contract is scanned once per config:
    a contract's scan result does not depend on the rest of the corpus,
    so every bucket's report and the whole-corpus one are assembled from
    the same results.
    """
    bucket_names = list(buckets)
    bucket_of = {c.id: bucket for bucket, corpus in buckets.items() for c in corpus}
    union = Corpus(
        label="all-buckets",
        contracts=[c for bucket in bucket_names for c in buckets[bucket]],
    )
    cells = []
    cross = []
    for cfg in cfg_range:
        pct = _threshold_percent(cfg)
        payload = _payload_of(sigs, cfg)
        results = _scan_contracts(union, payload, cfg, jobs)
        start = 0
        for bucket in bucket_names:
            corpus = buckets[bucket]
            report = _assemble(corpus, sigs, payload, cfg, results[start:start + len(corpus)])
            start += len(corpus)
            min_sim: dict[str, float] = {}
            det_count: dict[str, int] = {}
            for d in report.detections:
                name = d.vuln_type.name
                det_count[name] = det_count.get(name, 0) + 1
                if name not in min_sim or d.similarity < min_sim[name]:
                    min_sim[name] = d.similarity
            class_count: dict[str, int] = {}
            for cls in report.classes:
                for name in cls["vuln_types"]:
                    class_count[name] = class_count.get(name, 0) + 1
            for name in _ALL_TYPES:
                cells.append(
                    {
                        "mode": cfg.mode.value,
                        "threshold_percent": pct,
                        "vuln_type": name,
                        "bucket": bucket,
                        "class_count": class_count.get(name, 0),
                        "min_similarity": min_sim.get(name),
                        "detections": det_count.get(name, 0),
                    }
                )

        for cls in _assemble(union, sigs, payload, cfg, results).classes:
            spanned = sorted(
                {
                    bucket_of[m["contract_id"]]
                    for m in cls["members"]
                    if m["contract_id"] in bucket_of
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
