"""Command line interface.

    volcano fetch --address 0x... --out corpus/
    volcano extract --in corpus/ --dump
    volcano normalize --in Contract.sol --mode consistent
    volcano clones --in corpus/ --mode blind --threshold 0 --out clones.json
    volcano derive --in vuln/ --labels labels.csv --out sigs/
    volcano scan --sigs builtin --in corpus/ --out report.json
    volcano evolve --sigs builtin --in corpus/ --out evolution.csv
    volcano cache clear --in corpus/

Exit codes: 0 success, 1 operational error (missing paths, network
failures, config/cache mismatch), 2 usage error (bad flags, threshold
outside 0-30).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import cache as cache_mod
from . import corpus as corpus_mod
from .clone_engine import CloneConfig, class_row
from .detector import analyze_evolution, scan, write_catalog_csv
from .errors import VolcanoError
from .extractor import extract_functions
from .normalize import RenamingMode, normalize_contract
from .signatures import (
    builtin_signatures,
    derive_signatures,
    load_signatures,
    read_labels_csv,
    save_signatures,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Echo of the flags a run was invoked with."""

    command: str
    mode: str = "consistent"
    threshold_percent: int = 30
    min_lines: int = 3
    max_lines: int | None = None
    jobs: int = 1
    dedupe: bool = False
    use_cache: bool = True
    cache_dir: str | None = None
    in_path: str | None = None
    out_path: str | None = None
    sigs_path: str | None = None
    labels_path: str | None = None
    fmt: str = "json"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        def get(name, default):
            return getattr(args, name, default)

        return cls(
            command=args.command,
            mode=get("mode", "consistent"),
            threshold_percent=get("threshold", 30),
            min_lines=get("min_lines", 3),
            max_lines=get("max_lines", None),
            jobs=get("jobs", 1),
            dedupe=get("dedupe", False),
            use_cache=not get("no_cache", False),
            cache_dir=get("cache_dir", None),
            in_path=get("in_path", None),
            out_path=get("out", None),
            sigs_path=get("sigs", None),
            labels_path=get("labels", None),
            fmt=get("format", "json"),
        )


def _clock(ms: float) -> str:
    seconds = int(ms // 1000)
    days, rem = divmod(seconds, 86400)
    stamp = f"{rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}"
    if days:
        stamp = f"{days} day{'s' if days != 1 else ''}, {stamp}"
    return stamp


def emit_timing(per_contract_ms: list[float]) -> str:
    """Human timing line: H:MM:SS wall clock with milliseconds for the average."""
    if not per_contract_ms:
        return "average NA, total 00:00:00"
    total = sum(per_contract_ms)
    avg = total / len(per_contract_ms)
    return f"average {_clock(avg)} ({round(avg)}ms), total {_clock(total)}"


def _threshold_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"threshold must be an integer percent, got {text!r}")
    if not 0 <= value <= 30:
        raise argparse.ArgumentTypeError("threshold must be a whole percent in [0, 30]")
    return value


def _address_arg(text: str) -> str:
    if not re.fullmatch(r"0x[0-9a-fA-F]{40}", text):
        raise argparse.ArgumentTypeError(f"malformed address: {text!r}")
    return text


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_corpus_flags(sub, with_dedupe=True):
    sub.add_argument("--in", dest="in_path", required=True, help="corpus root directory")
    if with_dedupe:
        sub.add_argument("--dedupe", action="store_true", help="drop byte-identical duplicates")


def _add_clone_flags(sub, default_mode: str, default_threshold: int):
    sub.add_argument("--mode", choices=["none", "blind", "consistent"], default=default_mode)
    sub.add_argument(
        "--threshold", type=_threshold_arg, default=default_threshold,
        help="max difference as a whole percent, 0-30",
    )
    sub.add_argument("--min-lines", dest="min_lines", type=_positive_int, default=3)
    sub.add_argument("--max-lines", dest="max_lines", type=_positive_int, default=None)


def _clone_config(args) -> CloneConfig:
    try:
        return CloneConfig(
            mode=RenamingMode(args.mode),
            max_difference=Fraction(args.threshold, 100),
            min_lines=args.min_lines,
            max_lines=args.max_lines,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _load_corpus(args) -> corpus_mod.Corpus:
    corpus = corpus_mod.load_corpus(args.in_path)
    if getattr(args, "dedupe", False):
        corpus = corpus_mod.dedupe(corpus)
    return corpus


def _load_sigs(source: str):
    if source == "builtin":
        return builtin_signatures()
    return load_signatures(source)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_fetch(args) -> int:
    addresses = list(args.address or [])
    if args.addresses:
        for line in Path(args.addresses).read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                addresses.append(line)
    if not addresses:
        print("error: no addresses given (use --address or --addresses)", file=sys.stderr)
        return 2
    for addr in addresses:
        try:
            _address_arg(addr)
        except argparse.ArgumentTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    api_key = args.api_key or os.environ.get(corpus_mod.EXPLORER_KEY_ENV, "")
    budget = corpus_mod.RateBudget(args.rate)
    fetched = 0
    for addr in addresses:
        try:
            contract = corpus_mod.fetch_contract(
                addr, api_key, args.out, base_url=args.explorer_url, rate_budget=budget
            )
        except VolcanoError as exc:
            print(f"warning: {exc}", file=sys.stderr)
            continue
        fetched += 1
        print(f"fetched {contract.id} ({contract.content_digest[:12]})")
    print(f"{fetched}/{len(addresses)} contracts fetched into {args.out}")
    return 0 if fetched == len(addresses) else 1


def _cmd_extract(args) -> int:
    corpus = _load_corpus(args)
    rows = []
    for contract in corpus:
        for fragment in extract_functions(contract):
            rows.append(
                {
                    "contract_id": fragment.contract_id,
                    "name": fragment.name,
                    "start_line": fragment.start_line,
                    "end_line": fragment.end_line,
                }
            )
    if args.dump:
        _write_or_print(json.dumps(rows, indent=2, sort_keys=True), args.out)
    else:
        print(f"{len(rows)} fragments in {len(corpus)} contracts")
    return 0


def _cmd_normalize(args) -> int:
    path = Path(args.in_path)
    mode = RenamingMode(args.mode)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
        contracts = [
            corpus_mod.SourceContract(id=path.name, source_text=text, content_digest="")
        ]
    else:
        contracts = list(corpus_mod.load_corpus(path))
    blocks = []
    for contract in contracts:
        for nf in normalize_contract(contract, mode):
            header = f"-- {nf.origin.uid} [{mode.value}]"
            blocks.append("\n".join([header, *nf.lines]))
    _write_or_print("\n\n".join(blocks) + ("\n" if blocks else ""), args.out)
    return 0


def clone_report_dict(cache, corpus, cfg: CloneConfig, pairs, classes) -> dict:
    """Deterministic JSON document for a within-corpus clone analysis."""
    index = cache_mod.fragment_index(cache, corpus, cfg.mode)
    return {
        "config": cfg.to_dict(),
        "pairs": [
            {"left": p.left.uid, "right": p.right.uid, "similarity": p.similarity}
            for p in pairs
        ],
        "classes": [class_row(cls, index, index[cls.members[0]]) for cls in classes],
    }


def _cmd_clones(args) -> int:
    cfg = _clone_config(args)
    corpus = _load_corpus(args)
    cache_dir = Path(args.cache_dir) if args.cache_dir else Path(args.in_path) / cache_mod.DEFAULT_CACHE_DIR
    cache = None
    if not args.no_cache:
        cache = cache_mod.AnalysisCache.load(cache_dir)
    if cache is None:
        cache = cache_mod.AnalysisCache.empty(cfg)
    pairs, classes = cache_mod.incremental_scan(cache, corpus, cfg)
    if not args.no_cache:
        cache.save(cache_dir)
    doc = clone_report_dict(cache, corpus, cfg, pairs, classes)
    doc["run"] = RunConfig.from_args(args).to_dict()
    _write_or_print(json.dumps(doc, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_derive(args) -> int:
    cfg = _clone_config(args)
    corpus = _load_corpus(args)
    labels = read_labels_csv(args.labels)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    review = args.review or str(out_dir / "review.json")
    sig_set = derive_signatures(corpus, labels, cfg, review_path=review)
    save_signatures(sig_set, out_dir)
    print(f"derived {len(sig_set)} signatures into {out_dir} (review: {review})")
    return 0


def _cmd_scan(args) -> int:
    cfg = _clone_config(args)
    corpus = _load_corpus(args)
    sigs = _load_sigs(args.sigs)
    report = scan(corpus, sigs, cfg, jobs=args.jobs)
    report.config["run"] = RunConfig.from_args(args).to_dict()
    if args.format == "json":
        _write_or_print(report.to_json(), args.out)
    elif args.format == "csv":
        if not args.out:
            print("error: --format csv needs --out", file=sys.stderr)
            return 2
        write_catalog_csv(report, corpus, args.out)
    else:
        lines = [f"{len(report.detections)} detections in {report.contract_count} contracts"]
        for name, count in sorted(report.per_type_instances.items()):
            if count:
                lines.append(f"  {name}: {count} fragments")
        _write_or_print("\n".join(lines), args.out)
    print("analysis time:", emit_timing(report.per_contract_ms))
    return 0


def _parse_configs(text: str) -> list[CloneConfig]:
    cfgs = []
    for part in text.split(","):
        mode_name, _, pct = part.strip().partition(":")
        try:
            cfgs.append(
                CloneConfig(
                    mode=RenamingMode(mode_name),
                    max_difference=Fraction(_threshold_arg(pct or "0"), 100),
                )
            )
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: bad --configs entry {part.strip()!r}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return cfgs


def _cmd_evolve(args) -> int:
    corpus = _load_corpus(args)
    sigs = _load_sigs(args.sigs)
    buckets = corpus_mod.sort_by_version(corpus)
    report = analyze_evolution(buckets, sigs, _parse_configs(args.configs), jobs=args.jobs)
    report.to_csv(args.out)
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    flagged = len(report.cross_bucket_classes)
    print(f"evolution table over {len(buckets)} buckets -> {args.out}"
          + (f" ({flagged} cross-bucket classes flagged)" if flagged else ""))
    return 0


def _cmd_cache(args) -> int:
    if args.cache_dir:
        cache_dir = Path(args.cache_dir)
    elif args.in_path:
        cache_dir = Path(args.in_path) / cache_mod.DEFAULT_CACHE_DIR
    else:
        cache_dir = Path(cache_mod.DEFAULT_CACHE_DIR)
    cache_mod.AnalysisCache(config_digest="", config={}).clear(cache_dir)
    print(f"cache cleared under {cache_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volcano",
        description="Clone-detection based vulnerability scanning for Solidity sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download verified sources from a block explorer")
    p.add_argument("--address", action="append", type=_address_arg, help="repeatable 0x address")
    p.add_argument("--addresses", help="file with one address per line")
    p.add_argument("--out", required=True, help="corpus directory to write <address>.sol into")
    p.add_argument("--explorer-url", dest="explorer_url", default=corpus_mod.DEFAULT_EXPLORER_URL)
    p.add_argument("--api-key", dest="api_key", default=None,
                   help=f"overrides ${corpus_mod.EXPLORER_KEY_ENV}")
    p.add_argument("--rate", type=float, default=5.0, help="max requests per second")
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("extract", help="list function fragments of a corpus")
    _add_corpus_flags(p)
    p.add_argument("--dump", action="store_true", help="print fragment boundaries as JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("normalize", help="print normalized fragment lines")
    p.add_argument("--in", dest="in_path", required=True, help=".sol file or corpus directory")
    p.add_argument("--mode", choices=["none", "blind", "consistent"], default="none")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("clones", help="within-corpus clone pairs and classes")
    _add_corpus_flags(p)
    _add_clone_flags(p, default_mode="blind", default_threshold=0)
    p.add_argument("--out", default=None)
    p.add_argument("--no-cache", dest="no_cache", action="store_true")
    p.add_argument("--cache-dir", dest="cache_dir", default=None)
    p.set_defaults(func=_cmd_clones)

    p = sub.add_parser("derive", help="derive signatures from a labeled corpus")
    _add_corpus_flags(p)
    _add_clone_flags(p, default_mode="consistent", default_threshold=30)
    p.add_argument("--labels", required=True, help="CSV of contract_id,vuln_type")
    p.add_argument("--out", required=True, help="signature directory to write")
    p.add_argument("--review", default=None, help="mixed-class review file (default <out>/review.json)")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("scan", help="scan a corpus against a signature set")
    _add_corpus_flags(p)
    _add_clone_flags(p, default_mode="consistent", default_threshold=30)
    p.add_argument("--sigs", required=True, help="'builtin', a signature dir, or an annotated .sol")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker process cap")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("evolve", help="vulnerability evolution across version buckets")
    _add_corpus_flags(p)
    p.add_argument("--sigs", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json-out", dest="json_out", default=None)
    p.add_argument("--configs", default="blind:0,consistent:30",
                   help="comma list of mode:threshold cells to evaluate")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("cache", help="manage the analysis cache")
    p.add_argument("action", choices=["clear"])
    p.add_argument("--in", dest="in_path", default=None)
    p.add_argument("--cache-dir", dest="cache_dir", default=None)
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VolcanoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
