"""In-process tracing of the program's layers, from outside the program.

Tracer.install() replaces the public function at each layer boundary with
a wrapper that records one span per call (name, start, end, parent) and
the counts the per-layer metrics need. A function imported by name lives
on in the importing module's globals (detector.lcs_length,
cache.lcs_length, signatures.detect_pairs, normalize.strip_comments, ...),
so every volcano module binding the original object is patched, and
uninstall() puts every original back.

Spans stay in four flat arrays in memory (scan-redundant makes over a
million of them) and are written out by dump() when the run ends. Self
time of a span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import time
import types
from pathlib import Path

MODULES = ["cli", "corpus", "extractor", "normalize", "clone_engine", "detector", "cache", "signatures"]

# Spans whose outermost occurrences make up cli.report_s.
REPORT_SPANS = {
    "cli.clone_report_dict", "cli._write_or_print", "cli.json_dumps",
    "detector.ScanReport.to_json", "detector.write_catalog_csv",
    "detector.EvolutionReport.to_csv", "detector.EvolutionReport.to_dict",
}


def _window(n: int, cfg) -> bool:
    return n >= cfg.min_lines and (cfg.max_lines is None or n <= cfg.max_lines)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.command = 0
        self.extract_by_command: dict[int, list] = {}
        self.origins: set = set()
        self.sequences: set = set()
        self._scan_ctx = None  # [eligible fragments, cfg] while a contract is scanned
        self._lcs = [0, 0, 0, 0]  # calls, cells, identical, under similarity()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _span(self, name: str, fn, pre=None, post=None):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(*args, **kwargs) if pre else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post:
                post(result, state, *args, **kwargs)
            return result

        return wrapper

    def _lcs_span(self, fn):
        """Lean wrapper for the kernel: it runs about a million times per workload."""
        nid = self._id("clone_engine.lcs_length")
        sim = self._id("clone_engine.similarity")
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        acc = self._lcs
        clock = time.perf_counter

        @functools.wraps(fn)
        def lcs_length(a, b):
            idx = len(starts)
            top = stack[-1]
            names.append(nid)
            parents.append(top)
            ends.append(0.0)
            starts.append(clock())
            result = fn(a, b)
            ends[idx] = clock()
            acc[0] += 1
            acc[1] += len(a) * len(b)
            if a == b:
                acc[2] += 1
            if top >= 0 and names[top] == sim:
                acc[3] += 1
            return result

        return lcs_length

    # ------------------------------------------------------------- patching

    def _patch_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"volcano.{m}") for m in MODULES}
        everywhere = list(mods.values()) + [importlib.import_module("volcano")]
        hooks = self._hooks()
        for qual, (pre, post) in hooks.items():
            mod_name, _, fn_name = qual.partition(".")
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._span(qual, original, pre, post)
            self._patch_everywhere(original, wrapper, everywhere)
        self._patch_everywhere(mods["clone_engine"].lcs_length,
                               self._lcs_span(mods["clone_engine"].lcs_length), everywhere)

        detector, cache = mods["detector"], mods["cache"]
        for cls, meth in [(detector.ScanReport, "to_json"), (detector.EvolutionReport, "to_csv"),
                          (detector.EvolutionReport, "to_dict"), (cache.AnalysisCache, "save")]:
            post = self._cache_saved if meth == "save" else None
            name = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{meth}"
            self._patch_attr(cls, meth, self._span(name, cls.__dict__[meth], None, post))
        load = cache.AnalysisCache.__dict__["load"].__func__
        self._patch_attr(cache.AnalysisCache, "load", classmethod(self._span("cache.AnalysisCache.load", load)))

        # cli formats its reports with json.dumps inline; give cli its own json.
        cli = mods["cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(cli.json))
        proxy.dumps = self._span("cli.json_dumps", cli.json.dumps)
        self._patch_attr(cli, "json", proxy)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------------- hooks

    def _hooks(self):
        t = self

        def loaded(corpus, state, *a, **k):
            t.add("corpus.contracts", len(corpus))
            t.add("corpus.skipped", corpus.skipped)

        def extracted(frags, state, contract, *a, **k):
            t.add("extractor.fragments", len(frags))
            calls = t.extract_by_command.setdefault(t.command, [0, set()])
            calls[0] += 1
            calls[1].add(contract.id)

        def printed(nf, state, *a, **k):
            t.add("normalize.lines", len(nf.lines))

        def renamed(nf, state, *a, **k):
            t.origins.add((nf.mode, nf.origin))
            t.sequences.add((nf.mode, nf.line_digests))
            ctx = t._scan_ctx
            if ctx is not None and _window(len(nf.line_digests), ctx[1]):
                ctx[0] += 1

        def pairs_pre(fragments, cfg, *a, **k):
            eligible = [nf.origin for nf in fragments if _window(len(nf.line_digests), cfg)]
            per_origin: dict = {}
            for o in eligible:
                per_origin[o] = per_origin.get(o, 0) + 1
            t.add("clone_engine.pairs_enumerated",
                  _pairs(len(eligible)) - sum(_pairs(c) for c in per_origin.values()))

        def pairs_found(pairs, state, *a, **k):
            t.add("clone_engine.pairs_found", len(pairs))

        def clustered(classes, state, *a, **k):
            t.add("clone_engine.classes", len(classes))

        def scanned(report, state, *a, **k):
            t.add("detector.detections", len(report.detections))

        def contract_pre(contract_id, source_text, payload, cfg):
            t._scan_ctx = [0, cfg]
            return len(payload)

        def contract_post(result, sigs, *a, **k):
            t.add("clone_engine.pairs_enumerated", t._scan_ctx[0] * sigs)
            t.add("clone_engine.pairs_found", len(result[0]))
            t._scan_ctx = None

        def cross_pre(payload, hits, cfg):
            t.add("detector.hit_fragments", len(hits))

        def incremental_pre(cache, corpus, cfg):
            return dict(cache.contracts), set(cache.fragments)

        def incremental_post(result, state, cache, corpus, cfg):
            old_ids, old_digests = state
            unchanged = {c.id for c in corpus if old_ids.get(c.id) == c.content_digest}
            t.add("cache.records_rebuilt", len({c.content_digest for c in corpus} - old_digests))
            total = kept = 0
            for c in corpus:
                n = sum(1 for r in cache.fragments[c.content_digest]
                        if _window(len(r["lines"][cfg.mode.value]), cfg))
                total += n
                kept += n if c.id in unchanged else 0
            t.add("clone_engine.pairs_enumerated", _pairs(total) - _pairs(kept))
            pairs = result[0]
            reused = sum(1 for p in pairs
                         if p.left.contract_id in unchanged and p.right.contract_id in unchanged)
            t.add("cache.pairs_reused", reused)
            t.add("cache.pairs_recomputed", len(pairs) - reused)
            t.add("clone_engine.pairs_found", len(pairs) - reused)

        def derived(sig_set, state, *args, **kwargs):
            t.add("signatures.derived", len(sig_set))
            review = kwargs.get("review_path", args[3] if len(args) > 3 else None)
            if review is not None:
                mixed = json.loads(Path(review).read_text())["mixed_classes"]
                t.add("signatures.review_classes", len(mixed))

        return {
            "cli.main": (None, None),
            "corpus.load_corpus": (None, loaded),
            "extractor.extract_functions": (None, extracted),
            "extractor.mask_comments_and_strings": (None, None),
            "extractor.strip_comments": (None, None),
            "normalize.pretty_print": (None, printed),
            "normalize.in_mode": (None, renamed),
            "normalize.rename_blind": (None, renamed),
            "normalize.rename_consistent": (None, renamed),
            "clone_engine.detect_pairs": (pairs_pre, pairs_found),
            "clone_engine.cluster_classes": (None, clustered),
            "clone_engine.similarity": (None, None),
            "detector.scan": (None, scanned),
            "detector._scan_source": (contract_pre, contract_post),
            "detector._cross_classes": (cross_pre, None),
            "detector.write_catalog_csv": (None, None),
            "cache.incremental_scan": (incremental_pre, incremental_post),
            "cache.fragment_index": (None, None),
            "signatures.derive_signatures": (None, derived),
            "signatures.save_signatures": (None, None),
            "signatures.load_signatures": (None, None),
            "signatures.builtin_signatures": (None, None),
            "cli.clone_report_dict": (None, None),
            "cli._write_or_print": (None, None),
        }

    def _cache_saved(self, result, state, cache_obj, cache_dir):
        from volcano.cache import CACHE_FILE

        self.counts["cache.bytes"] = (Path(cache_dir) / CACHE_FILE).stat().st_size

    # --------------------------------------------------------------- output

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics: inclusive times, self time per module, counts."""
        n = len(self.start)
        dur = array.array("d", bytes(8 * n))
        child = array.array("d", bytes(8 * n))
        for i, (s, e, p) in enumerate(zip(self.start, self.end, self.parent)):
            d = e - s
            dur[i] = d
            if p >= 0:
                child[p] += d
        total = [0.0] * len(self.names)
        selfs = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, d, c in zip(self.name, dur, child):
            total[nid] += d
            selfs[nid] += d - c
            calls[nid] += 1
        by = {name: (total[i], selfs[i], calls[i]) for i, name in enumerate(self.names)}

        def inc(*names):
            return sum(by.get(x, (0.0,))[0] for x in names)

        def ncalls(*names):
            return sum(by.get(x, (0, 0, 0))[2] for x in names)

        report_ids = {self._ids[x] for x in REPORT_SPANS if x in self._ids}
        report_s = 0.0
        for i in range(n):
            if self.name[i] in report_ids:
                p = self.parent[i]
                while p >= 0 and self.name[p] not in report_ids:
                    p = self.parent[p]
                if p < 0:
                    report_s += dur[i]

        lcs_calls, cells, identical, under_sim = self._lcs
        enumerated = self.counts.get("clone_engine.pairs_enumerated", 0)
        found = self.counts.get("clone_engine.pairs_found", 0)
        kernel_calls = lcs_calls - under_sim
        ratios = [c / len(ids) for c, ids in self.extract_by_command.values() if ids]
        c = self.counts
        m = {
            "corpus.load_s": inc("corpus.load_corpus"),
            "corpus.contracts": c.get("corpus.contracts", 0),
            "corpus.skipped": c.get("corpus.skipped", 0),
            "extractor.extract_s": inc("extractor.extract_functions"),
            "extractor.mask_s": inc("extractor.mask_comments_and_strings"),
            "extractor.extract_calls": ncalls("extractor.extract_functions"),
            "extractor.fragments": c.get("extractor.fragments", 0),
            "extractor.reextract_ratio": max(ratios, default=0.0),
            "normalize.pretty_print_s": inc("normalize.pretty_print"),
            "normalize.pretty_print_calls": ncalls("normalize.pretty_print"),
            "normalize.strip_s": inc("extractor.strip_comments"),
            "normalize.rename_s": inc("normalize.in_mode", "normalize.rename_blind", "normalize.rename_consistent"),
            "normalize.rename_calls": ncalls("normalize.in_mode", "normalize.rename_blind",
                                             "normalize.rename_consistent"),
            "normalize.lines": c.get("normalize.lines", 0),
            "normalize.distinct_sequences": len(self.sequences),
            "normalize.dup_ratio": len(self.origins) / len(self.sequences) if self.sequences else 0.0,
            "clone_engine.lcs_calls": lcs_calls,
            "clone_engine.lcs_s": inc("clone_engine.lcs_length"),
            "clone_engine.lcs_cells": cells,
            "clone_engine.lcs_identical_calls": identical,
            "clone_engine.pairs_enumerated": enumerated,
            "clone_engine.prune_ratio": 1 - kernel_calls / enumerated if enumerated else 0.0,
            "clone_engine.pairs_found": found,
            "clone_engine.lcs_useful_ratio": found / kernel_calls if kernel_calls else 0.0,
            "clone_engine.detect_pairs_s": inc("clone_engine.detect_pairs"),
            "clone_engine.cluster_s": inc("clone_engine.cluster_classes"),
            "clone_engine.classes": c.get("clone_engine.classes", 0),
            "clone_engine.similarity_calls": ncalls("clone_engine.similarity"),
            "clone_engine.similarity_s": inc("clone_engine.similarity"),
            "detector.scan_s": inc("detector.scan"),
            "detector.scan_calls": ncalls("detector.scan"),
            "detector.per_contract_s": inc("detector._scan_source"),
            "detector.cross_classes_s": inc("detector._cross_classes"),
            "detector.hit_fragments": c.get("detector.hit_fragments", 0),
            "detector.detections": c.get("detector.detections", 0),
            "cache.load_s": inc("cache.AnalysisCache.load"),
            "cache.save_s": inc("cache.AnalysisCache.save"),
            "cache.bytes": c.get("cache.bytes", 0),
            "cache.incremental_scan_s": inc("cache.incremental_scan"),
            "cache.fragment_index_s": inc("cache.fragment_index"),
            "cache.records_rebuilt": c.get("cache.records_rebuilt", 0),
            "cache.pairs_reused": c.get("cache.pairs_reused", 0),
            "cache.pairs_recomputed": c.get("cache.pairs_recomputed", 0),
            "signatures.derive_s": inc("signatures.derive_signatures"),
            "signatures.derived": c.get("signatures.derived", 0),
            "signatures.review_classes": c.get("signatures.review_classes", 0),
            "signatures.save_s": inc("signatures.save_signatures"),
            "signatures.load_s": inc("signatures.load_signatures", "signatures.builtin_signatures"),
            "cli.report_s": report_s,
        }
        for mod in MODULES:
            m[f"{mod}.self_s"] = sum(v[1] for k, v in by.items() if k.split(".", 1)[0] == mod)
        m["trace.spans"] = n
        return m

    def totals(self, lo: int, hi: int) -> dict[str, float]:
        """Inclusive seconds per span name over the spans lo..hi-1 (one command)."""
        out = [0.0] * len(self.names)
        for i in range(lo, hi):
            out[self.name[i]] += self.end[i] - self.start[i]
        return {name: out[i] for i, name in enumerate(self.names) if out[i]}

    def dump(self, path: Path) -> None:
        """spans.json holds the name table; spans.bin the four arrays, back to back:
        name ids (uint16), parent indices (int32, -1 for a root), starts and
        ends (float64 seconds on the perf_counter clock)."""
        path.mkdir(parents=True, exist_ok=True)
        (path / "spans.json").write_text(json.dumps({"names": self.names, "count": len(self.start)}))
        with open(path / "spans.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
