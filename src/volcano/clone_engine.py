"""Near-miss clone detection over normalized fragments.

Similarity between two fragments is |LCS| / max(|a|, |b|) computed over
whole normalized lines, compared as strings; a pair is a clone when the
difference 1 - similarity is at most max_difference, boundary inclusive.
Threshold decisions use exact rational arithmetic: 10-line fragments with
a 7-line LCS sit exactly on a 0.30 boundary, and binary floating point
would push them over it.

Clone classes are the connected components of the pair graph.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyFragment, ModeMismatch
from .extractor import FragmentRef
from .normalize import NormalizedFragment, RenamingMode

MAX_DIFFERENCE_CEILING = Fraction(30, 100)


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        # str() round-trips the decimal the caller wrote (0.3 -> 3/10),
        # not the binary approximation Fraction(float) would keep.
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class CloneConfig:
    mode: RenamingMode
    max_difference: Fraction = Fraction(0)
    min_lines: int = 3
    max_lines: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_difference", _as_fraction(self.max_difference))
        if not isinstance(self.mode, RenamingMode):
            raise ValueError(f"mode must be a RenamingMode, got {self.mode!r}")
        if not 0 <= self.max_difference <= MAX_DIFFERENCE_CEILING:
            raise ValueError(f"max_difference {self.max_difference} outside [0, 0.30]")
        if self.min_lines < 1:
            raise ValueError("min_lines must be at least 1")
        if self.max_lines is not None and self.max_lines < self.min_lines:
            raise ValueError("max_lines must be >= min_lines")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "max_difference": str(self.max_difference),
            "min_lines": self.min_lines,
            "max_lines": self.max_lines,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha1(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ClonePair:
    left: FragmentRef
    right: FragmentRef
    similarity: float
    # Integer ingredients of the similarity, kept so caches can rebuild
    # the exact same float.
    lcs_len: int = 0
    max_len: int = 0


@dataclass(frozen=True)
class CloneClass:
    class_id: str
    members: tuple[FragmentRef, ...]


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two sequences."""
    if a == b:
        return len(a)
    # Shared prefix/suffix contributes to any LCS; trimming it keeps the
    # quadratic part small on near-clones.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    mid_a = a[lo:hi_a]
    mid_b = b[lo:hi_b]
    trimmed = lo + (len(a) - hi_a)
    if not mid_a or not mid_b:
        return trimmed
    if len(mid_a) < len(mid_b):
        mid_a, mid_b = mid_b, mid_a
    prev = [0] * (len(mid_b) + 1)
    for x in mid_a:
        cur = [0]
        append = cur.append
        best = 0
        for j, y in enumerate(mid_b):
            best = prev[j] + 1 if x == y else max(prev[j + 1], best)
            append(best)
        prev = cur
    return trimmed + prev[-1]


def _sequences(value):
    return value.lines if isinstance(value, NormalizedFragment) else value


def similarity(a, b) -> float:
    """LCS similarity in [0, 1]; accepts fragments or raw line sequences."""
    sa, sb = _sequences(a), _sequences(b)
    if not sa or not sb:
        raise EmptyFragment("similarity is undefined for an empty fragment")
    return lcs_length(sa, sb) / max(len(sa), len(sb))


def _check_mode(nf: NormalizedFragment, cfg: CloneConfig):
    if nf.mode is not cfg.mode:
        raise ModeMismatch(
            f"{nf.origin.uid} is in mode {nf.mode.value}, config wants {cfg.mode.value}"
        )


def within_window(n: int, cfg: CloneConfig) -> bool:
    """Whether a fragment of n normalized lines is inside [min_lines, max_lines]."""
    return n >= cfg.min_lines and (cfg.max_lines is None or n <= cfg.max_lines)


def clone_lcs(a, b, cfg: CloneConfig) -> int | None:
    """LCS length of two line sequences when they are clones under cfg, else None.

    Pairs whose sizes alone force the difference past max_difference are
    rejected before any LCS work; the threshold test is exact.
    """
    na, nb = len(a), len(b)
    lo, hi = (na, nb) if na <= nb else (nb, na)
    num, den = cfg.max_difference.numerator, cfg.max_difference.denominator
    if lo * den < (den - num) * hi:
        return None
    lcs = lcs_length(a, b)
    return lcs if (hi - lcs) * den <= num * hi else None


def is_clone_pair(a: NormalizedFragment, b: NormalizedFragment, cfg: CloneConfig) -> bool:
    """Decide the clone relation for one pair; a fragment never pairs with itself."""
    return bool(detect_pairs([a, b], cfg))


def detect_pairs(fragments, cfg: CloneConfig, known=frozenset()) -> list[ClonePair]:
    """All clone pairs among fragments, in canonical (left, right) order.

    Fragments outside [min_lines, max_lines] never pair, nor do fragments
    with the same origin. Pairs between two fragments whose contract ids
    are both in known are left out: the caller already has them.
    """
    for nf in fragments:
        _check_mode(nf, cfg)
    eligible = sorted(
        (nf for nf in fragments if within_window(len(nf.lines), cfg)),
        key=lambda nf: nf.origin,
    )
    pairs = []
    n = len(eligible)
    for i, a in enumerate(eligible):
        origin = a.origin
        j = i + 1
        while j < n and eligible[j].origin == origin:
            j += 1  # equal origins sort next to each other
        a_known = origin.contract_id in known
        la = a.lines
        na = len(la)
        for b in eligible[j:]:
            if a_known and b.origin.contract_id in known:
                continue
            lb = b.lines
            lcs = clone_lcs(la, lb, cfg)
            if lcs is not None:
                hi = max(na, len(lb))
                pairs.append(ClonePair(origin, b.origin, lcs / hi, lcs_len=lcs, max_len=hi))
    return pairs


def cluster_classes(pairs) -> list[CloneClass]:
    """Connected components of the pair graph; every class has >= 2 members."""
    parent: dict[FragmentRef, FragmentRef] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for p in pairs:
        union(p.left, p.right)
    groups: dict[FragmentRef, list[FragmentRef]] = {}
    for ref in parent:
        groups.setdefault(find(ref), []).append(ref)
    classes = []
    for members in groups.values():
        members.sort()
        blob = "\n".join(m.uid for m in members).encode("utf-8")
        classes.append(
            CloneClass(
                class_id=hashlib.sha1(blob).hexdigest()[:16],
                members=tuple(members),
            )
        )
    classes.sort(key=lambda c: c.members[0])
    return classes


def class_row(cls: CloneClass, by_ref, exemplar: NormalizedFragment) -> dict:
    """Report row of a clone class: every member with its similarity to exemplar."""
    return {
        "class_id": cls.class_id,
        "members": [
            {
                "contract_id": m.contract_id,
                "name": m.name,
                "start_line": m.start_line,
                "end_line": m.end_line,
                "similarity_to_exemplar": similarity(by_ref[m], exemplar),
            }
            for m in cls.members
        ],
    }
