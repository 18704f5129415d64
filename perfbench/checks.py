"""Output checks that decide whether a command invocation failed.

Each check returns a list of problems; an empty list means the output is
correct. The checks never read the program's `timing` section.

- canonical digests: the deterministic body of every output, hashed, must
  match across runs and the digest recorded for the seed (digests.json);
- planted truths: every clone group, builtin-signature mutant, label-pure
  family and mixed family that a generator planted must be found;
- incremental equivalence: a warm clones report equals a from-scratch one
  (after the reversed edit, the cold report; after the edit, a --no-cache
  run on the edited corpus, the cold report's pairs among unedited
  contracts, and sampled textbook decisions for pairs touching edited ones);
- independent LCS: on a seeded sample of pairs, a textbook LCS over the
  lines `volcano normalize` prints reaches the same exact-rational
  threshold decision as the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

THRESHOLD = Fraction(30, 100)
MIN_LINES = 3


# ---------------------------------------------------------------- digests


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def scan_body(path: Path) -> dict:
    """Scan report minus its timing section and the echo of the run flags."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timing", None)
    doc.get("config", {}).pop("run", None)
    return doc


def clones_body(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("run", None)
    return doc


def digest_of(kind: str, path: Path) -> str:
    if kind == "scan":
        return _sha(_canonical(scan_body(path)))
    if kind == "clones":
        return _sha(_canonical(clones_body(path)))
    if kind == "dir":
        h = hashlib.sha256()
        for f in sorted(path.rglob("*")):
            if f.is_file():
                h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
        return h.hexdigest()
    return _sha(path.read_bytes())


# ---------------------------------------------------------- textbook LCS


def textbook_lcs(a, b) -> int:
    """Full-table dynamic programme, no trimming or shortcuts."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def passes_size_filter(na: int, nb: int) -> bool:
    lo, hi = min(na, nb), max(na, nb)
    return lo >= MIN_LINES and Fraction(lo, hi) >= 1 - THRESHOLD


def is_clone(a, b) -> tuple[bool, int]:
    """Exact-rational decision: 1 - |LCS| / max(|a|, |b|) <= THRESHOLD."""
    lcs = textbook_lcs(a, b)
    return 1 - Fraction(lcs, max(len(a), len(b))) <= THRESHOLD, lcs


def parse_normalize(text: str) -> dict[str, list[str]]:
    """uid -> normalized lines, from `volcano normalize` output."""
    out: dict[str, list[str]] = {}
    current = None
    for line in text.split("\n"):
        if line.startswith("-- ") and line.endswith("]"):
            current = line[3:].rsplit(" [", 1)[0]
            out[current] = []
        elif line and current is not None:
            out[current].append(line)
        elif not line:
            current = None
    return out


def split_uid(uid: str) -> tuple[str, str]:
    """(contract id, function name) of a fragment uid cid:name:start-end."""
    head = uid.rsplit(":", 1)[0]
    cid, name = head.split(":", 1)
    return cid, name


def check_scan_decisions(report: dict, lines: dict[str, list[str]], sig_lines: dict[str, list[str]],
                         sampled: set[str]) -> tuple[list[str], int]:
    """Every (sampled fragment, signature) pair past the size filter must be
    reported exactly when the textbook decision says clone, with the same
    similarity. Returns (problems, pairs checked)."""
    reported = {}
    for d in report["detections"]:
        reported[(d["contract_id"], d["function"], d["start_line"], d["sig_id"])] = d["similarity"]
    problems = []
    checked = 0
    for uid, frag in lines.items():
        cid, name = split_uid(uid)
        if cid not in sampled:
            continue
        start = int(uid.rsplit(":", 1)[1].split("-")[0])
        for sig_id, ex in sig_lines.items():
            if not passes_size_filter(len(frag), len(ex)):
                continue
            checked += 1
            clone, lcs = is_clone(frag, ex)
            got = reported.get((cid, name, start, sig_id))
            if clone != (got is not None):
                problems.append(f"scan decision differs for {uid} vs {sig_id}: textbook says {clone}")
            elif clone and got != lcs / max(len(frag), len(ex)):
                problems.append(f"scan similarity differs for {uid} vs {sig_id}")
    return problems, checked


def check_clone_decisions(report: dict, lines: dict[str, list[str]], pairs: list[tuple[str, str]]
                          ) -> list[str]:
    reported = {(p["left"], p["right"]): p["similarity"] for p in report["pairs"]}
    reported.update({(r, l): s for (l, r), s in list(reported.items())})
    problems = []
    for left, right in pairs:
        a, b = lines.get(left), lines.get(right)
        if a is None or b is None:
            problems.append(f"normalize printed no lines for {left if a is None else right}")
            continue
        clone, lcs = is_clone(a, b) if passes_size_filter(len(a), len(b)) else (False, 0)
        got = reported.get((left, right))
        if clone != (got is not None):
            problems.append(f"clone decision differs for {left} ~ {right}: textbook says {clone}")
        elif clone and got != lcs / max(len(a), len(b)):
            problems.append(f"clone similarity differs for {left} ~ {right}")
    return problems


def unreported_pairs(report: dict, lines: dict[str, list[str]], sampled: set[str], rng: random.Random,
                     k: int = 25, touching: set[str] = frozenset()) -> list[tuple[str, str]]:
    """Up to k pairs across the sampled contracts' fragments that pass the
    size filter but were not reported; with `touching`, only pairs with a
    side in those contracts."""
    seen = {frozenset((p["left"], p["right"])) for p in report["pairs"]}
    local = sorted(uid for uid in lines if split_uid(uid)[0] in sampled)
    candidates = [
        (a, b)
        for i, a in enumerate(local)
        for b in local[i + 1:]
        if split_uid(a)[0] != split_uid(b)[0]
        and (not touching or split_uid(a)[0] in touching or split_uid(b)[0] in touching)
        and frozenset((a, b)) not in seen
        and passes_size_filter(len(lines[a]), len(lines[b]))
    ]
    return rng.sample(candidates, min(k, len(candidates)))


# ----------------------------------------------------------- planted truths


def check_groups(report: dict, groups) -> list[str]:
    """Every planted group must be pairwise reported as clones."""
    pairs = {frozenset((p["left"], p["right"])) for p in report["pairs"]}
    keys = {split_uid(u): u for p in report["pairs"] for u in (p["left"], p["right"])}
    problems = []
    for group in groups:
        uids = [keys.get(m) for m in group]
        if None in uids:
            missing = [m for m, u in zip(group, uids) if u is None]
            problems.append(f"planted clone {missing[0]} is in no reported pair")
            continue
        for i, a in enumerate(uids):
            for b in uids[i + 1:]:
                if frozenset((a, b)) not in pairs:
                    problems.append(f"planted pair {a} ~ {b} not reported")
    return problems


def check_unchanged_pairs(warm: dict, cold: dict, edited: set[str]) -> list[str]:
    """Among contracts the edit left alone, the warm report has exactly the
    cold report's pairs, similarities included."""

    def kept(report):
        return {(p["left"], p["right"], p["similarity"]) for p in report["pairs"]
                if split_uid(p["left"])[0] not in edited and split_uid(p["right"])[0] not in edited}

    missing, extra = kept(cold) - kept(warm), kept(warm) - kept(cold)
    if missing or extra:
        return [f"warm report differs from the cold one on unedited contracts: "
                f"{len(missing)} pairs missing, {len(extra)} extra"]
    return []


def check_builtin_hits(report: dict, hits) -> list[str]:
    found: dict[tuple[str, str], set[str]] = {}
    for d in report["detections"]:
        found.setdefault((d["contract_id"], d["function"]), set()).add(d["sig_id"])
    problems = []
    for key, sigs in hits.items():
        missing = sigs - found.get(key, set())
        if missing:
            problems.append(f"planted mutant {key} not detected by {sorted(missing)}")
    return problems


def check_derived(sig_dir: Path, lab) -> list[str]:
    manifest = json.loads((sig_dir / "manifest.json").read_text())["signatures"]
    review = json.loads((sig_dir / "review.json").read_text())["mixed_classes"]
    problems = []
    by_function = {}
    for entry in manifest:
        by_function.setdefault(entry["function"], []).append(entry["vuln_type"])
    for fam in lab.pure:
        if by_function.get(fam.template.name) != [fam.label]:
            problems.append(f"pure family {fam.template.name} gave {by_function.get(fam.template.name)}")
    mixed = [sorted({split_uid(u)[0] for u in cls["members"]}) for cls in review]
    for fam in lab.mixed:
        if sorted(cid for cid, _ in fam.members) not in mixed:
            problems.append(f"mixed family {fam.template.name} missing from review.json")
    return problems


def check_evolve(doc: dict, planted) -> list[str]:
    want: dict[tuple[str, str, str], int] = {}
    for p in planted:
        for mode in ("blind", "consistent") if p.exact else ("consistent",):
            key = (mode, p.bucket, p.vuln_type)
            want[key] = want.get(key, 0) + 1
    problems = []
    got = {(c["mode"], c["bucket"], c["vuln_type"]): c["detections"] for c in doc["cells"]}
    for key, n in sorted(want.items()):
        if got.get(key, 0) < n:
            problems.append(f"evolve cell {key}: {got.get(key, 0)} detections, {n} planted")
    return problems
