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

Both run one sweep, which extracts each contract once and decides it
under every cell, one config each. analyze_evolution() reads the cross
classes themselves: it never serializes one into report rows.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field

from .clone_engine import CloneConfig, class_row, clone_classes, match_exemplars
from .corpus import Corpus, SourceContract
from .errors import EmptySignatureSet
from . import jsonout, normalize
from .extractor import FragmentRef
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
        """Distinct detected target fragments per vulnerability type."""
        seen: dict[str, set] = {name: set() for name in _ALL_TYPES}
        for d in self.detections:
            seen[d.vuln_type.name].add(d.target)
        return {name: len(refs) for name, refs in seen.items()}

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
    """One sweep cell: one (sig_id, vuln_type, exemplar) entry per
    signature, its CloneConfig as .cfg, the place of cfg.mode in the
    run's NormalizationMemo.modes as .column and a match table as .matches.

    matches maps each normalized sequence the scan meets to
    match_exemplars(lines, exemplar lines, cfg), the (entry index,
    similarity) of every signature it clones; a sequence outside the line
    window maps to (). A sequence that several fragments normalize to is
    thus decided once against all signatures. A payload serves one
    config, and every worker process holds its own copy of it.
    """

    def __init__(self, sigs: SignatureSet, cfg: CloneConfig, column: int):
        if not len(sigs):
            raise EmptySignatureSet("scan needs at least one signature")
        super().__init__((s.sig_id, s.vuln_type, normalize.in_mode(s.exemplar, cfg.mode)) for s in sigs)
        self.cfg = cfg
        self.column = column
        self.exemplars = [exemplar.lines for _, _, exemplar in self]
        self.matches: dict[tuple, tuple] = {}


def _scan_source(contract_id: str, records, payload, cfg: CloneConfig):
    """Decide a contract's memo records under one cell: (detections, {detected ref: its lines})."""
    column = 3 + payload.column
    matches = payload.matches
    detections = []
    hits: dict[FragmentRef, tuple] = {}
    for record in records:
        lines = record[column]
        found = matches.get(lines)
        if found is None:
            found = matches[lines] = match_exemplars(lines, payload.exemplars, cfg)
        if not found:
            continue
        ref = FragmentRef(contract_id, record[1], record[2], record[0])
        for k, sim in found:
            sig_id, vuln_type, _ = payload[k]
            detections.append(Detection(sig_id=sig_id, vuln_type=vuln_type, target=ref, similarity=sim))
        hits[ref] = lines
    return detections, hits


def _init_worker(memo, payloads):
    _WORKER.update(memo=memo, payloads=payloads)


def _scan_task(contract: SourceContract):
    """Normalize a contract once and decide it under every cell: ([result per cell], elapsed ms)."""
    started = time.perf_counter()
    records = _WORKER["memo"].records(contract)
    results = [_scan_source(contract.id, records, payload, payload.cfg) for payload in _WORKER["payloads"]]
    return results, (time.perf_counter() - started) * 1000.0


@dataclass(frozen=True, order=True)
class _Node(FragmentRef):
    """A member of a cross class: the ref of a signature exemplar or a target
    fragment. An exemplar and a target that share a ref (a signature file
    scanned as a corpus) stay two members. Nodes sort as their refs,
    signature first on a tie, so class ids and rows are those of the refs.
    """

    role: str  # "signature" or "target"


def _cross_classes(payload, hits, cfg: CloneConfig):
    """Clone classes over exemplars plus detected fragments: (the node
    table, [(class, its exemplars' sorted type names)]).

    Only classes that hold a target fragment are kept. Each such class
    holds an exemplar too, since every detected fragment clones one under
    cfg's window and threshold; a class of exemplars alone is dropped.
    """
    table: dict[_Node, tuple] = {}
    sig_types: dict[_Node, set] = {}
    for _, vuln_type, exemplar in payload:
        node = _Node(**vars(exemplar.origin), role="signature")
        table[node] = exemplar.lines
        sig_types.setdefault(node, set()).add(vuln_type.name)
    for ref, lines in hits.items():
        table[_Node(**vars(ref), role="target")] = lines
    return table, [
        (cls, sorted({t for m in cls.members for t in sig_types.get(m, ())}))
        for cls in clone_classes(table, cfg)
        if any(m.role == "target" for m in cls.members)
    ]


def _scan_contracts(target: Corpus, memo: NormalizationMemo, payloads, jobs: int):
    """The sweep: the _scan_task result of every contract of target, in
    corpus order; its k-th cell result is that of the k-th payload.

    memo is built with the modes the payloads' columns index. jobs caps
    the workers, as do the contracts and the CPUs this process may run
    on. The serial path and the one worker pool map the same task; a
    worker reads each contract it gets through memo.records once and
    decides the records under every cell, with its own copies of the memo
    and the match tables. Every cell's results are held at once.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(target), cpus)
    if workers <= 1:
        _init_worker(memo, payloads)
        try:
            return list(map(_scan_task, target))
        finally:
            _WORKER.clear()
    # Imported here: it loads multiprocessing, which only --jobs needs.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(target) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(memo, payloads)
    ) as pool:
        return list(pool.map(_scan_task, target, chunksize=chunk))


def scan(target: Corpus, sigs: SignatureSet, cfg: CloneConfig, jobs: int = 1) -> ScanReport:
    """Match every signature against every fragment of the target corpus."""
    started = time.perf_counter()
    payload = _Payload(sigs, cfg, 0)
    results = _scan_contracts(target, NormalizationMemo((cfg.mode,)), [payload], jobs)
    cell = [per_cell[0] for per_cell, _ in results]
    detections = sorted((d for dets, _ in cell for d in dets), key=lambda d: (d.target, d.sig_id))
    hits = {ref: lines for _, frag_hits in cell for ref, lines in frag_hits.items()}

    classes_started = time.perf_counter()
    table, cross = _cross_classes(payload, hits, cfg)
    classes = []
    for cls, types in cross:
        first_exemplar = next(table[m] for m in cls.members if m.role == "signature")
        classes.append({**class_row(cls, table, first_exemplar), "vuln_types": types})
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
        per_contract_ms=[elapsed for _, elapsed in results],
        cross_classes_ms=(finished - classes_started) * 1000.0,
        wall_ms=(finished - started) * 1000.0,
    )


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

    def to_dict(self) -> dict:
        return asdict(self)

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
    silently double-counted. The configs are the cells of one sweep: a
    contract's results do not depend on the rest of the corpus, so every
    bucket's cells and the cross-bucket check read the same results. One
    NormalizationMemo, built with every config's mode once, serves every
    config, so each distinct fragment text is pretty-printed once per
    process and renamed once per mode.
    """
    bucket_names = list(buckets)
    bucket_of = {c.id: bucket for bucket, corpus in buckets.items() for c in corpus}
    union = Corpus(
        label="all-buckets",
        contracts=[c for bucket in bucket_names for c in buckets[bucket]],
    )
    modes = list(dict.fromkeys(cfg.mode for cfg in cfg_range))
    payloads = [_Payload(sigs, cfg, modes.index(cfg.mode)) for cfg in cfg_range]
    results = _scan_contracts(union, NormalizationMemo(modes), payloads, jobs)
    cells = []
    cross = []
    for k, payload in enumerate(payloads):
        cfg = payload.cfg
        pct = _threshold_percent(cfg)
        dets = {bucket: [] for bucket in bucket_names}
        hits = {bucket: {} for bucket in bucket_names}
        detected: dict[FragmentRef, tuple] = {}
        for contract, (per_cell, _) in zip(union, results):
            found, frag_hits = per_cell[k]
            dets[bucket_of[contract.id]] += found
            hits[bucket_of[contract.id]].update(frag_hits)
            detected.update(frag_hits)
        for bucket in bucket_names:
            _, classes = _cross_classes(payload, hits[bucket], cfg)
            for name in _ALL_TYPES:
                sims = [d.similarity for d in dets[bucket] if d.vuln_type.name == name]
                cells.append(
                    {
                        "mode": cfg.mode.value,
                        "threshold_percent": pct,
                        "vuln_type": name,
                        "bucket": bucket,
                        "class_count": sum(name in types for _, types in classes),
                        "min_similarity": min(sims, default=None),
                        "detections": len(sims),
                    }
                )

        # A class spans the buckets of its targets; an exemplar has none,
        # even where its contract id is a corpus one.
        for cls, _ in _cross_classes(payload, detected, cfg)[1]:
            spanned = sorted({bucket_of[m.contract_id] for m in cls.members if m.role == "target"})
            if len(spanned) > 1:
                cross.append({"class_id": cls.class_id, "mode": cfg.mode.value, "buckets": spanned})
    return EvolutionReport(
        buckets=bucket_names,
        configs=[{**cfg.to_dict(), "threshold_percent": _threshold_percent(cfg)} for cfg in cfg_range],
        cells=cells,
        cross_bucket_classes=cross,
    )
