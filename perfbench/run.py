"""End-to-end and per-layer benchmark for volcano.

Run from the root of a volcano checkout:

    python3 perfbench/run.py --workload scan-redundant --seed 8 --seconds 55 --trace 0

It generates the workload's corpora from --seed under .perfbench/, then
drives the real CLI (`python -m volcano.cli`, the checkout's src on
PYTHONPATH, default --jobs 1) one command at a time: a closed loop with a
single client. Every command is timed from outside and every output is
checked (checks.py). With --trace 0 the run repeats rounds of every
command, plus the set-up probe, until --seconds is used up (at least one
round); a step with every=2 (the 10-to-14-s scan of scan-redundant) runs
in every other round, and after the first round a step that would not
end within --seconds is skipped. Each end-to-end time is the median of
its samples, which are spread over the whole run, scaled to a reference
host speed (see probe). With --trace 1 the workload's focus commands run
in this process through volcano.cli.main, untraced and then with the
layer tracer (layers.py) installed; the per-layer metrics and the tracing
overhead come from those pairs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `failed / attempted` is the
failure ratio: a command invocation fails on a non-zero exit, a traceback
on stderr, or any failed output check.

--record writes the digests of a correct run into perfbench/digests.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

DIGESTS = HERE / "digests.json"
CLONE_FLAGS = ["--mode", "consistent", "--threshold", "30"]
EVOLVE_CONFIGS = "blind:0,consistent:30"
WORKLOADS = ["scan-redundant", "clones-diverse"]
# The first 600 contracts of the acceptance-8 corpus: the cross-class phase
# is still the largest part of the scan, which takes 10-14 s instead of
# 24-32 s, so a run holds two or three scans; the reasons are in README.md.
REDUNDANT_CONTRACTS = 600
# clones-diverse corpus sizes: every command takes 0.4-2 s, so a run holds
# about ten rounds of samples; the reasons are in README.md.
DIVERSE = {"contracts": 30, "families": 5, "family_size": 5}
LABELED = {"pure": 4, "mixed": 2, "family_size": 8}
VERSIONS = {"contracts": 40}

END_TO_END = {
    "setup_s": "s", "scan_s": "s", "clones_cold_s": "s", "clones_warm_s": "s",
    "derive_s": "s", "evolve_s": "s", "peak_rss_mb": "MB", "cache_mb": "MB",
}

# Host speed. A shared host's speed drifts by 20% and more between runs a
# few minutes apart, moving every command at once. After every timed
# command the benchmark times a fixed pure-Python kernel (a textbook LCS,
# the same kind of work as the program's); each reported time is the raw
# median scaled by PROBE_REFERENCE_S / (median probe time of the run): the
# seconds the command takes on a host running at the reference speed.
# PROBE_REFERENCE_S is the probe's median on the 2-vCPU host of the first
# baseline; raw medians are kept in summary.json.
PROBE_REFERENCE_S = 0.028
_PROBE_RNG = random.Random(0)
_PROBE_LINES = [f"v{_PROBE_RNG.randrange(40)} = w{_PROBE_RNG.randrange(40)} + {_PROBE_RNG.randrange(9)} ;"
                for _ in range(800)]
_PROBE_BLOCKS = [_PROBE_LINES[i:i + 80] for i in range(0, 800, 80)]


def probe() -> float:
    """Seconds the host takes for the fixed kernel right now."""
    started = time.perf_counter()
    for a, b in zip(_PROBE_BLOCKS, _PROBE_BLOCKS[1:]):
        checks.textbook_lcs(a, b)
    return time.perf_counter() - started


SETUP_PROBE = (
    "import sys\n"
    "from volcano.corpus import load_corpus\n"
    "from volcano.signatures import builtin_signatures, load_signatures\n"
    "corpus = load_corpus(sys.argv[1])\n"
    "sigs = builtin_signatures() if sys.argv[2] == 'builtin' else load_signatures(sys.argv[2])\n"
    "print(len(corpus), len(sigs))\n"
)


# ------------------------------------------------------------------- plans


@dataclass
class Step:
    name: str  # also the output's digest key
    metric: str
    argv: list[str]
    outputs: list[str]
    fresh: list[str] = field(default_factory=list)  # removed before the command runs
    every: int = 1  # runs in rounds 0, every, 2 * every, ...


@dataclass
class Plan:
    workload: str
    seed: int
    work: Path
    corpora: dict[str, gen.GenCorpus]  # directory -> corpus
    lab: gen.Labeled
    planted: list  # evolve truths
    dirs: dict[str, str]  # role -> directory: scan, clones_v0, clones_v1, labeled, evolve
    setup: tuple[str, str]  # corpus directory, signature source
    focus: list[str]  # steps of the traced run
    groups: list[list[Step]]  # a round, in order

    def shape(self) -> dict:
        return {role: {"dir": d, **self.corpora[d].shape} for role, d in self.dirs.items()}


def _groups(d: dict[str, str], scan_every: int) -> list[list[Step]]:
    return [
        [Step("derive", "derive_s",
              ["derive", "--in", d["labeled"], "--labels", "labels.csv", *CLONE_FLAGS, "--out", "sigs"],
              ["sigs"], fresh=["sigs"])],
        [Step("scan", "scan_s",
              ["scan", "--in", d["scan"], "--sigs", "builtin", *CLONE_FLAGS, "--out", "scan.json"],
              ["scan.json"], every=scan_every)],
        [Step("clones_cold", "clones_cold_s",
              ["clones", "--in", d["clones_v0"], *CLONE_FLAGS, "--cache-dir", "cache", "--out", "clones_cold.json"],
              ["clones_cold.json"], fresh=["cache"])],
        # Warm after the edit, then warm after the edit reversed: the second
        # report must equal the cold one, and the cache is back at v0.
        [Step("clones_warm", "clones_warm_s",
              ["clones", "--in", d["clones_v1"], *CLONE_FLAGS, "--cache-dir", "cache", "--out", "clones_warm.json"],
              ["clones_warm.json"]),
         Step("clones_back", "clones_warm_s",
              ["clones", "--in", d["clones_v0"], *CLONE_FLAGS, "--cache-dir", "cache", "--out", "clones_back.json"],
              ["clones_back.json"])],
        [Step("evolve", "evolve_s",
              ["evolve", "--in", d["evolve"], "--sigs", "sigs", "--configs", EVOLVE_CONFIGS,
               "--out", "evolve.csv", "--json-out", "evolve.json"],
              ["evolve.csv", "evolve.json"])],
    ]


def build_plan(workload: str, seed: int, work: Path) -> Plan:
    """Generate the workload's corpora from the seed; the reasons are in README.md."""
    if workload == "scan-redundant":
        red = gen.redundant_corpus(seed, contracts=REDUNDANT_CONTRACTS)
        small = gen.subset(red, sorted(red.files)[:8])
        corpora = {"redundant": red, "slice_v0": small, "slice_v1": gen.edit_script(seed, small)}
        lab = gen.labeled_corpus(seed, pure=3, mixed=1, family_size=6)
        dirs = {"scan": "redundant", "clones_v0": "slice_v0", "clones_v1": "slice_v1", "evolve": "slice_v0"}
        planted, setup, focus = [], ("redundant", "builtin"), ["scan"]
    elif workload == "clones-diverse":
        div = gen.diverse_corpus(seed, **DIVERSE)
        lab = gen.labeled_corpus(seed, **LABELED)
        versions, planted = gen.versions_corpus(seed, lab, **VERSIONS)
        corpora = {"diverse_v0": div, "diverse_v1": gen.edit_script(seed, div), "versions": versions}
        dirs = {"scan": "diverse_v1", "clones_v0": "diverse_v0", "clones_v1": "diverse_v1", "evolve": "versions"}
        setup = ("diverse_v0", "builtin")
        focus = ["derive", "scan", "clones_cold", "clones_warm", "clones_back", "evolve"]
    else:
        raise ValueError(workload)
    corpora["labeled"] = lab.corpus
    dirs["labeled"] = "labeled"
    for name, corpus in corpora.items():
        root = work / name
        root.mkdir(parents=True)
        for rel, text in corpus.files.items():
            (root / rel).write_text(text, encoding="utf-8")
    (work / "labels.csv").write_text(gen.labels_csv(lab.labels), encoding="utf-8")
    return Plan(workload, seed, work, corpora, lab, planted, dirs, setup, focus,
                _groups(dirs, scan_every=2 if workload == "scan-redundant" else 1))


# ------------------------------------------------------------------ running


class Runner:
    """Runs commands, applies checks and keeps the failure tally."""

    def __init__(self, root: Path, plan: Plan):
        self.root = root
        self.plan = plan
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0
        self.digests: dict[str, str] = {}
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.recorded = recorded.get(plan.workload, {}).get(str(plan.seed))
        self.logs = plan.work / "logs"
        self.logs.mkdir(exist_ok=True)

    def tally(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            for p in problems[:5]:
                print(f"FAILED {label}: {p}", file=sys.stderr)
        return not problems

    def spawn(self, argv: list[str], label: str) -> tuple[float, int, str, str]:
        """Run one child process in the work directory; (wall s, exit code, stdout, stderr)."""
        out, err = self.logs / f"{label}.out", self.logs / f"{label}.err"
        with open(out, "wb") as so, open(err, "wb") as se:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.plan.work, env=self.env, stdout=so, stderr=se)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall, proc.returncode, out.read_text(errors="replace"), err.read_text(errors="replace")

    def cli(self, argv: list[str], label: str) -> tuple[float, list[str], str]:
        wall, code, out, err = self.spawn([sys.executable, "-m", "volcano.cli", *argv], label)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback (most recent call last)" in err:
            problems.append("traceback on stderr")
        return wall, problems, out

    def prepare(self, step: Step) -> None:
        for rel in step.fresh:
            shutil.rmtree(self.plan.work / rel, ignore_errors=True)

    def run_step(self, step: Step, label: str) -> tuple[float, bool]:
        """(wall seconds, whether the invocation and its checks passed)."""
        self.prepare(step)
        wall, problems, _ = self.cli(step.argv, label)
        if not problems:
            problems = self.check(step)
        return wall, self.tally(label, problems)

    # ---------------------------------------------------------------- checks

    def check(self, step: Step) -> list[str]:
        plan, work = self.plan, self.plan.work
        path = work / step.outputs[0]
        missing = [o for o in step.outputs if not (work / o).exists()]
        if missing:
            return [f"no output {missing}"]
        problems: list[str] = []
        if step.name == "derive":
            problems += checks.check_derived(path, plan.lab)
            problems += self.digest("derive", "dir", path)
        elif step.name == "scan":
            problems += checks.check_builtin_hits(json.loads(path.read_text()),
                                                  plan.corpora[plan.dirs["scan"]].builtin_hits)
            problems += self.digest("scan", "scan", path)
        elif step.name in ("clones_cold", "clones_warm", "clones_back"):
            role = "clones_v1" if step.name == "clones_warm" else "clones_v0"
            problems += checks.check_groups(json.loads(path.read_text()), plan.corpora[plan.dirs[role]].groups)
            if step.name == "clones_back":
                if checks.clones_body(path) != checks.clones_body(work / "clones_cold.json"):
                    problems.append("warm report after the reverse edit differs from the cold report")
            else:
                problems += self.digest(step.name, "clones", path)
            if step.name == "clones_warm":
                shape = plan.corpora[plan.dirs["clones_v1"]].shape
                problems += checks.check_unchanged_pairs(
                    json.loads(path.read_text()), json.loads((work / "clones_cold.json").read_text()),
                    {shape["removed"], shape["added"], *shape["modified"]})
        elif step.name == "evolve":
            problems += checks.check_evolve(json.loads((work / "evolve.json").read_text()), plan.planted)
            problems += self.digest("evolve_csv", "raw", work / "evolve.csv")
            problems += self.digest("evolve_json", "raw", work / "evolve.json")
        return problems

    def digest(self, key: str, kind: str, path: Path) -> list[str]:
        value = checks.digest_of(kind, path)
        seen = self.digests.setdefault(key, value)
        if seen != value:
            return [f"{key} output is not byte-identical across rounds"]
        if self.recorded and self.recorded.get(key) != value:
            return [f"{key} output differs from the digest recorded for seed {self.plan.seed}"]
        return []

    def reference(self) -> None:
        """Compare the warm report with --no-cache on the edited corpus (after the timed rounds)."""
        argv = ["clones", "--in", self.plan.dirs["clones_v1"], *CLONE_FLAGS, "--no-cache",
                "--out", "clones_nocache.json"]
        _, problems, _ = self.cli(argv, "clones_nocache")
        work = self.plan.work
        if not problems and checks.clones_body(work / "clones_nocache.json") != checks.clones_body(
                work / "clones_warm.json"):
            problems.append("warm report differs from the --no-cache report on the edited corpus")
        self.tally("clones_nocache", problems)

    def lcs_check(self) -> None:
        """Independent LCS decisions on a seeded sample of scan and clone pairs."""
        plan, work = self.plan, self.plan.work
        rng = random.Random(f"check:{plan.seed}")
        if (work / "scan.json").exists():
            self._lcs_scan(rng)
        if (work / "clones_cold.json").exists():
            self._lcs_clones(rng, "clones_cold.json", plan.dirs["clones_v0"], set())
        if (work / "clones_warm.json").exists():
            shape = plan.corpora[plan.dirs["clones_v1"]].shape
            self._lcs_clones(rng, "clones_warm.json", plan.dirs["clones_v1"], {shape["added"], *shape["modified"]})

    def _lcs_scan(self, rng: random.Random) -> None:
        from volcano.signatures import builtin_signatures

        plan, work = self.plan, self.plan.work
        sample = work / "scan_sample"
        shutil.rmtree(sample, ignore_errors=True)
        (sample / "sigs").mkdir(parents=True)
        for sig in builtin_signatures():
            (sample / "sigs" / f"{sig.sig_id}.sol").write_text("\n".join(sig.exemplar.lines) + "\n")
        scan_src = plan.corpora[plan.dirs["scan"]].files
        picked = set(rng.sample(sorted(scan_src), min(12, len(scan_src))))
        for cid in picked:
            (sample / cid).write_text(scan_src[cid])
        _, problems, out = self.cli(["normalize", "--in", "scan_sample", "--mode", "consistent"],
                                    "normalize_scan")
        if not problems:
            lines = checks.parse_normalize(out)
            sig_lines = {checks.split_uid(u)[0][len("sigs/"):-len(".sol")]: v
                         for u, v in lines.items() if u.startswith("sigs/")}
            found, checked = checks.check_scan_decisions(json.loads((work / "scan.json").read_text()),
                                                         lines, sig_lines, picked)
            problems += found
            if checked == 0:
                problems.append("no scan pair passed the size filter in the sample")
        self.tally("normalize_scan", problems)

    def _lcs_clones(self, rng: random.Random, report_name: str, corpus_dir: str, edited: set[str]) -> None:
        """Sampled pairs of one clones report; with `edited`, only pairs touching
        the edited contracts (the part a warm run recomputes)."""
        plan, work = self.plan, self.plan.work
        sample = work / f"sample_{Path(report_name).stem}"
        shutil.rmtree(sample, ignore_errors=True)
        sample.mkdir()
        src = plan.corpora[corpus_dir].files
        report = json.loads((work / report_name).read_text())
        picked = set(rng.sample(sorted(src), min(12, len(src)))) | edited
        candidates = [p for p in report["pairs"]
                      if not edited or {checks.split_uid(p[s])[0] for s in ("left", "right")} & edited]
        reported = rng.sample(candidates, min(25, len(candidates)))
        needed = picked | {checks.split_uid(p[s])[0] for p in reported for s in ("left", "right")}
        for cid in needed:
            (sample / cid).write_text(src[cid])
        label = f"normalize_{Path(report_name).stem}"
        _, problems, out = self.cli(["normalize", "--in", sample.name, "--mode", "consistent"], label)
        if not problems:
            lines = checks.parse_normalize(out)
            pairs = [(p["left"], p["right"]) for p in reported]
            pairs += checks.unreported_pairs(report, lines, picked, rng, touching=edited)
            problems += checks.check_clone_decisions(report, lines, pairs)
        self.tally(label, problems)

    def setup_probe(self, label: str) -> tuple[float, bool]:
        corpus_dir, sigs = self.plan.setup
        wall, code, out, err = self.spawn([sys.executable, "-c", SETUP_PROBE, corpus_dir, sigs], label)
        problems = [f"exit code {code}"] if code else []
        expected = len(self.plan.corpora[corpus_dir].files)
        if not problems and out.split()[:1] != [str(expected)]:
            problems.append(f"setup loaded {out.strip()!r}, expected {expected} contracts")
        return wall, self.tally(label, problems)


# ------------------------------------------------------------------- modes


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timed(plan: Plan, runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Rounds of every step and the set-up probe until `seconds` is used up."""
    warm_up = runner.cli(["--help"], "warm_up")
    runner.tally("warm_up", warm_up[1])
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    probes: list[float] = [probe()]
    timeline: list[tuple[str, float, float]] = []  # (step, wall s, probe s after it)
    started = time.perf_counter()
    rounds = 0
    last: dict[str, float] = {}  # step -> its last wall time plus the probe after it

    def fits(name: str) -> bool:
        """Round 0 runs everything; later, a step runs only if it should end within `seconds`."""
        return not rounds or time.perf_counter() - started + last[name] <= seconds

    while True:
        ran = False
        for step in (s for group in plan.groups for s in group):
            if rounds % step.every or not fits(step.name):
                continue
            wall, ok = runner.run_step(step, f"{step.name}.{rounds}")
            probes.append(probe())
            timeline.append((step.name, wall, probes[-1]))
            last[step.name], ran = wall + probes[-1], True
            if ok:
                samples[step.metric].append(wall)
            if step.name == "clones_warm":
                cache = plan.work / "cache" / "analysis.json"
                if cache.exists():
                    samples["cache_mb"].append(cache.stat().st_size / 2 ** 20)
        if fits("setup"):
            wall, ok = runner.setup_probe(f"setup.{rounds}")
            probes.append(probe())
            timeline.append(("setup", wall, probes[-1]))
            last["setup"], ran = wall + probes[-1], True
            if ok:
                samples["setup_s"].append(wall)
        if not ran:
            break
        rounds += 1
    runner.lcs_check()
    samples["peak_rss_mb"] = [runner.peak_rss_kb / 1024]
    speed = PROBE_REFERENCE_S / statistics.median(probes)
    metrics = {}
    detail = {"rounds": rounds, "measured_s": time.perf_counter() - started,
              "probe": {"median_s": statistics.median(probes), "samples": len(probes), "speed": speed,
                        "first_s": probes[0]},
              "timeline": timeline}
    for name, unit in END_TO_END.items():
        values = samples[name]
        if not values:
            continue
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        scale = speed if unit == "s" else 1.0
        metrics[name] = {"value": median * scale, "unit": unit}
        detail[name] = {"value": median * scale, "median": median, "q1": q1, "q3": q3, "samples": len(values)}
    return metrics, detail


def _unit(name: str) -> str:
    if name == "cache.bytes":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def traced(plan: Plan, runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Focus commands in-process, an untraced pass then a traced one, repeated
    while another pair fits in `seconds`. The per-layer metrics come from the
    first traced pass; trace.*wall_s are medians over the pairs."""
    import layers

    from volcano import cli

    steps = [s for group in plan.groups for s in group if s.name in plan.focus]
    # Keeps cli.main from installing its own stderr handler; warnings are not failures.
    log_handler = logging.StreamHandler(io.StringIO())
    logging.getLogger().addHandler(log_handler)
    spans: list[tuple[int, int]] = []  # each command's span index range, first traced pass

    def run_all(tag: str, tracer=None) -> list[float]:
        walls = []
        for i, step in enumerate(steps):
            runner.prepare(step)
            if tracer is not None:
                tracer.command = i
                first = len(tracer.start)
            problems = []
            os.chdir(plan.work)
            sink = io.StringIO()
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(step.argv)
            except Exception:  # a traceback is a failed invocation, recorded below
                code = None
                problems.append("traceback: " + traceback.format_exc().strip().splitlines()[-1])
            finally:
                walls.append(time.perf_counter() - started)
                os.chdir(runner.root)
                if tracer is not None and len(spans) < len(steps):
                    spans.append((first, len(tracer.start)))
            if code not in (0, None):
                problems.append(f"exit code {code}")
            if not problems:
                problems = runner.check(step)
            runner.tally(f"{step.name}.{tag}", problems)
        return walls

    pairs: list[tuple[list[float], list[float]]] = []
    tracer = None
    started = time.perf_counter()
    try:
        while True:
            began = time.perf_counter()
            untraced_walls = run_all(f"untraced.{len(pairs)}")
            current = layers.Tracer()
            current.install()
            try:
                traced_walls = run_all(f"traced.{len(pairs)}", current)
            finally:
                current.uninstall()
            tracer = tracer or current
            pairs.append((untraced_walls, traced_walls))
            now = time.perf_counter()
            if now - started + (now - began) > seconds:
                break
    finally:
        logging.getLogger().removeHandler(log_handler)
    runner.lcs_check()
    tracer.dump(plan.work / "spans")
    layer = tracer.summarize()
    layer["trace.wall_s"] = statistics.median(sum(t) for _, t in pairs)
    layer["trace.untraced_wall_s"] = statistics.median(sum(u) for u, _ in pairs)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layer.items()}
    detail = {"pairs": len(pairs),
              "commands": {s.name: {"untraced_s": statistics.median(u[i] for u, _ in pairs),
                                    "traced_s": statistics.median(t[i] for _, t in pairs),
                                    "spans_s": tracer.totals(*spans[i])}
                           for i, s in enumerate(steps)}}
    return metrics, detail


# --------------------------------------------------------------------- main


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true", help="store this run's digests for its seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "volcano" / "cli.py").is_file():
        print(f"error: {root} has no src/volcano; run from the root of a volcano checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    plan = build_plan(args.workload, args.seed, work)
    runner = Runner(root, plan)
    if args.trace:
        metrics, detail = traced(plan, runner, args.seconds)
    else:
        metrics, detail = timed(plan, runner, args.seconds)
        runner.reference()

    correct = runner.failed == 0
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine(),
        "shape": plan.shape(), "attempted": runner.attempted, "failed": runner.failed,
        "failed_ratio": runner.failed / runner.attempted, "digests": runner.digests,
        "digests_recorded": bool(runner.recorded), "problems": runner.problems, **detail,
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.record and correct and not args.trace:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table.setdefault(args.workload, {})[str(args.seed)] = runner.digests
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} invocations, {runner.failed} failed, failed_ratio "
          f"{runner.failed / runner.attempted:.4f}; digests "
          f"{'checked against the record' if runner.recorded else 'not recorded for this seed'}")
    for name, row in detail.items():
        if isinstance(row, dict) and "median" in row:
            print(f"  {name}: {row['value']:.4f} (raw median {row['median']:.4f}, q1 {row['q1']:.4f}, "
                  f"q3 {row['q3']:.4f}, n={row['samples']})")
    print(f"  summary: {work / 'summary.json'}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
