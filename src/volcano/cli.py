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
import json  # noqa: F401 -- perfbench/layers.py swaps cli.json for a timed copy
import logging
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import corpus as corpus_mod
from . import jsonout
from .clone_engine import CloneConfig, _pair_tuples, _sequence_classes, class_row
from .errors import VolcanoError
from .extractor import FragmentRef, extract_functions
from .normalize import NormalizationMemo, RenamingMode

# detector, signatures and cache are imported by the commands that run them,
# so a command loads only the modules it needs.

log = logging.getLogger(__name__)


def _run_echo(args) -> dict:
    """The flags this run was invoked with, as the parser read them."""
    return {k: v for k, v in vars(args).items() if k != "func"}


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
    if not corpus_mod.ADDRESS_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"malformed address: {text!r}")
    return text


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _rate_arg(text: str) -> float:
    try:
        return corpus_mod.check_rate(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_corpus_flags(sub):
    sub.add_argument("--in", dest="in_path", required=True, help="corpus root directory")
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
    if args.dedupe:
        corpus = corpus_mod.dedupe(corpus)
    return corpus


def _load_sigs(source: str):
    from .signatures import builtin_signatures, load_signatures

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
        for line in Path(args.addresses).read_text(encoding="utf-8").splitlines():
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
        _write_or_print(jsonout.dumps(rows), args.out)
    else:
        print(f"{len(rows)} fragments in {len(corpus)} contracts")
    return 0


def _cmd_normalize(args) -> int:
    path = Path(args.in_path)
    mode = RenamingMode(args.mode)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
        contracts = [corpus_mod.SourceContract(path.name, text)]
    else:
        contracts = list(corpus_mod.load_corpus(path))
    memo = NormalizationMemo((mode,))
    blocks = []
    for contract in contracts:
        for name, start, end, lines in memo.records(contract):
            header = f"-- {FragmentRef(contract.id, start, end, name).uid} [{mode.value}]"
            blocks.append("\n".join([header, *lines]))
    _write_or_print("\n\n".join(blocks) + ("\n" if blocks else ""), args.out)
    return 0


def clone_report_dict(cfg: CloneConfig, pairs, classes, table) -> dict:
    """Deterministic JSON document for a within-corpus clone analysis;
    table is the fragment table, mapping each origin to its lines.

    The reference for clone_report_text, which writes the same document
    as text without building a dict per pair.
    """
    return {
        "config": cfg.to_dict(),
        "pairs": [
            {"left": p.left.uid, "right": p.right.uid, "similarity": p.similarity}
            for p in pairs
        ],
        "classes": [class_row(cls, table, table[cls.members[0]]) for cls in classes],
    }


def clone_report_text(cfg: CloneConfig, table, decisions, run: dict) -> str:
    """json.dumps(clone_report_dict(...) plus run, indent=2, sort_keys=True),
    written from the decisions of _sequence_pairs without a ClonePair or a
    dict per pair: every pair row fills one template, with each fragment's
    uid encoded once and each similarity formatted once."""
    eligible, groups, clones = decisions
    doc = clone_report_dict(cfg, [], _sequence_classes(*decisions), table)
    doc["run"] = run
    text = jsonout.dumps(doc)
    pairs = _pair_tuples(*decisions)
    if not pairs:
        return text
    # The one top-level "pairs" key: encoded strings hold no raw newline.
    head, _, tail = text.partition('\n  "pairs": []')
    uids = [encode_basestring_ascii(origin.uid) for origin in eligible]
    left = [f'    {{\n      "left": {uid},\n      "right": ' for uid in uids]
    right = [f'{uid},\n      "similarity": ' for uid in uids]
    ratios = {(len(lines), len(lines)) for lines in groups}
    ratios.update((lcs, max(len(la), len(lb))) for la, lb, lcs in clones)
    sim = {(lcs, hi): f"{lcs / hi!r}\n    }}" for lcs, hi in ratios}
    rows = ",\n".join([left[i] + right[j] + sim[lcs, hi] for i, j, lcs, hi in pairs])
    return "".join((head, '\n  "pairs": [\n', rows, "\n  ]", tail))


def _cache_dir(args) -> Path:
    """--cache-dir, else the cache directory under --in, else one in the working directory."""
    from .cache import DEFAULT_CACHE_DIR

    if args.cache_dir:
        return Path(args.cache_dir)
    return Path(args.in_path or ".") / DEFAULT_CACHE_DIR


def _cmd_clones(args) -> int:
    from . import cache as cache_mod

    cfg = _clone_config(args)
    corpus = _load_corpus(args)
    cache_dir = _cache_dir(args)
    cache = None
    if not args.no_cache:
        cache = cache_mod.AnalysisCache.load(cache_dir)
    if cache is None:
        cache = cache_mod.AnalysisCache.empty(cfg)
    table, decisions = cache_mod.incremental_sequences(cache, corpus, cfg)
    if not args.no_cache:
        cache.save(cache_dir)
    _write_or_print(clone_report_text(cfg, table, decisions, _run_echo(args)), args.out)
    return 0


def _cmd_derive(args) -> int:
    from .signatures import derive_signatures, read_labels_csv, save_signatures

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
    from .detector import scan, write_catalog_csv

    if args.format == "csv" and not args.out:
        print("error: --format csv needs --out", file=sys.stderr)
        return 2
    cfg = _clone_config(args)
    corpus = _load_corpus(args)
    sigs = _load_sigs(args.sigs)
    report = scan(corpus, sigs, cfg, jobs=args.jobs)
    report.config["run"] = _run_echo(args)
    if args.format == "json":
        _write_or_print(report.to_json(), args.out)
    elif args.format == "csv":
        write_catalog_csv(report, corpus, args.out)
    else:
        lines = [f"{len(report.detections)} detections in {report.contract_count} contracts"]
        for name, count in sorted(report.per_type_instances.items()):
            if count:
                lines.append(f"  {name}: {count} fragments")
        _write_or_print("\n".join(lines), args.out)
    print("analysis time:", emit_timing(report.per_contract_ms), file=sys.stderr)
    return 0


def _parse_configs(text: str) -> list[CloneConfig]:
    """The distinct mode:threshold cells of --configs; a bad or repeated one exits 2."""
    cfgs = []
    for part in text.split(","):
        mode_name, _, pct = part.strip().partition(":")
        try:
            cfg = CloneConfig(
                mode=RenamingMode(mode_name),
                max_difference=Fraction(_threshold_arg(pct or "0"), 100),
            )
            if cfg in cfgs:
                raise ValueError("the cell is already listed")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: bad --configs entry {part.strip()!r}: {exc}", file=sys.stderr)
            raise SystemExit(2)
        cfgs.append(cfg)
    return cfgs


def _cmd_evolve(args) -> int:
    from .detector import analyze_evolution

    cfgs = _parse_configs(args.configs)
    corpus = _load_corpus(args)
    sigs = _load_sigs(args.sigs)
    buckets = corpus_mod.sort_by_version(corpus)
    report = analyze_evolution(buckets, sigs, cfgs, jobs=args.jobs)
    report.to_csv(args.out)
    if args.json_out:
        Path(args.json_out).write_text(jsonout.dumps(report.to_dict()) + "\n")
    flagged = len(report.cross_bucket_classes)
    print(f"evolution table over {len(buckets)} buckets -> {args.out}"
          + (f" ({flagged} cross-bucket classes flagged)" if flagged else ""))
    return 0


def _cmd_cache(args) -> int:
    from .cache import AnalysisCache

    cache_dir = _cache_dir(args)
    AnalysisCache.clear(cache_dir)
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
    p.add_argument("--rate", type=_rate_arg, default=5.0, help="max requests per second")
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
    except UnicodeEncodeError as exc:
        print(f"error: the output cannot be encoded ({exc}); use --out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
