"""Near-miss clone detection over normalized fragments.

Similarity between two fragments is |LCS| / max(|a|, |b|) computed over
whole normalized lines, compared as strings; a pair is a clone when the
difference 1 - similarity is at most max_difference, boundary inclusive.
Threshold decisions use exact rational arithmetic: 10-line fragments with
a 7-line LCS sit exactly on a 0.30 boundary, and binary floating point
would push them over it.

lcs_length is bit-parallel over Python ints: O(|a| * ceil(|b|/w)) word
operations for w-bit machine words, and exact, not an approximation.

The engine reads a fragment table {origin: lines}, normalized lines in
the config's mode; as in extract_functions, the last fragment given for an
origin stands for it. Clone classes are the connected components of the
pair graph. A decision depends only on the two line sequences and the
config, so it is made once per distinct pair of sequences, kept as
(lines_a, lines_b, lcs), and holds for every fragment carrying them.
match_exemplars is the same decision for one sequence against a fixed list
of exemplars, the query a signature scan asks once per distinct sequence.

Which pairs of sequences reach the kernel is decided by an exact prefix
filter (Chaudhuri et al., ICDE 2006; SourcererCC, ICSE 2016). With
max_difference num/den, a clone pair has (hi - lcs) * den <= num * hi and
hi >= n for either side's n lines, so each side of n lines shares at least
need = ceil(n * (den - num) / den) lines with the other, counted as a
multiset. Each line becomes a token (line, k) for its k-th occurrence, so
the multiset overlap is a set overlap, and every sequence's tokens are
sorted by one global order: frequency over the distinct sequences, then
the token. The first common token of a clone pair then sits within the
first n - need + 1 = n * num // den + 1 tokens of each side, so an index of
those prefixes yields every clone pair as a candidate. Every candidate
still goes through the size filter and the exact threshold, so the index
drops only pairs that cannot clone and changes no decision.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
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
    lcs_len: int
    max_len: int

    @property
    def similarity(self) -> float:
        return self.lcs_len / self.max_len


@dataclass(frozen=True)
class CloneClass:
    class_id: str
    members: tuple[FragmentRef, ...]


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two sequences.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): v holds one bit per line
    of b, its zero bits count the LCS of b and the lines of a read so far,
    and each line of a updates all of them at once.
    """
    if a == b:
        return len(a)
    masks = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _sequences(value):
    return value.lines if isinstance(value, NormalizedFragment) else value


def similarity(a, b) -> float:
    """LCS similarity in [0, 1]; accepts fragments or raw line sequences."""
    sa, sb = _sequences(a), _sequences(b)
    if not sa or not sb:
        raise EmptyFragment("similarity is undefined for an empty fragment")
    return lcs_length(sa, sb) / max(len(sa), len(sb))


def within_window(n: int, cfg: CloneConfig) -> bool:
    """Whether a fragment of n normalized lines is inside [min_lines, max_lines]."""
    return n >= cfg.min_lines and (cfg.max_lines is None or n <= cfg.max_lines)


def clone_lcs(a, b, cfg: CloneConfig) -> int | None:
    """LCS length of two line sequences when they are clones under cfg, else None.

    Pairs whose sizes alone force the difference past max_difference are
    rejected before any LCS work; the threshold test is exact. At
    max_difference 0 only identical sequences clone, so no LCS runs at all.
    """
    num, den = cfg.max_difference.numerator, cfg.max_difference.denominator
    if not num:
        return len(a) if a == b else None
    na, nb = len(a), len(b)
    lo, hi = (na, nb) if na <= nb else (nb, na)
    if lo * den < (den - num) * hi:
        return None
    lcs = lcs_length(a, b)
    return lcs if (hi - lcs) * den <= num * hi else None


def match_exemplars(lines, exemplars, cfg: CloneConfig) -> tuple:
    """(k, similarity) for each exemplars[k] that the sequence lines clones under cfg.

    The line window covers both sides, as in clone_classes: a sequence
    outside [min_lines, max_lines] matches nothing and runs no decision, an
    exemplar outside it is matched by nothing, and clone_lcs decides the rest.
    """
    if not within_window(len(lines), cfg):
        return ()
    found = []
    for k, exemplar in enumerate(exemplars):
        lcs = clone_lcs(lines, exemplar, cfg) if within_window(len(exemplar), cfg) else None
        if lcs is not None:
            found.append((k, lcs / max(len(lines), len(exemplar))))
    return tuple(found)


def _tokens(lines) -> list[tuple]:
    """The lines of a sequence as tokens (line, k), line's k-th occurrence."""
    seen: dict = {}
    tokens = []
    for line in lines:
        k = seen[line] = seen.get(line, -1) + 1
        tokens.append((line, k))
    return tokens


def _candidates(old, new, cfg: CloneConfig) -> list[tuple]:
    """Pairs (a, b) of distinct sequences that may clone under cfg, b in new.

    a is in old or before b in new, so no pair of two old sequences is a
    candidate, and with new empty no index is built. Every clone pair with
    a side in new is one: it shares a token within each side's first
    n * num // den + 1 tokens in the global order (see the module
    docstring). old sequences enter the index first; each new one probes
    the prefixes indexed so far, then adds its own.
    """
    if not new:
        return []
    num, den = cfg.max_difference.numerator, cfg.max_difference.denominator
    seqs = old + new
    tokens = [_tokens(lines) for lines in seqs]
    freq = Counter(t for toks in tokens for t in toks)
    rank = {t: r for r, t in enumerate(sorted(freq, key=lambda t: (freq[t], t)))}
    index: dict[tuple, list[int]] = {}
    out = []
    for x, toks in enumerate(tokens):
        prefix = sorted(toks, key=rank.__getitem__)[: len(toks) * num // den + 1]
        if x >= len(old):
            near = {y for t in prefix for y in index.get(t, ())}
            out.extend((seqs[y], seqs[x]) for y in sorted(near))
        for t in prefix:
            index.setdefault(t, []).append(x)
    return out


def _table(fragments, cfg: CloneConfig) -> dict:
    """The fragment table {origin: lines} of normalized fragments in cfg's
    mode; the last fragment given for an origin stands for it."""
    table = {}
    for nf in fragments:
        if nf.mode is not cfg.mode:
            raise ModeMismatch(f"{nf.origin.uid} is in mode {nf.mode.value}, config wants {cfg.mode.value}")
        table[nf.origin] = nf.lines
    return table


def _sequence_pairs(table, cfg: CloneConfig, known=frozenset(), decided=()):
    """Clone decisions over a fragment table, made once per pair of distinct sequences.

    Returns (eligible, groups, clones): eligible the sorted origins of table
    whose lines are inside the line window; groups maps each of their
    sequences to its indices in eligible, fragments that are clones of each
    other with no LCS work; clones the clone pairs of distinct sequences as
    (lines_a, lines_b, lcs), the form decided takes. At max_difference 0
    only identical sequences clone, so clones is empty and no index is built.

    known is a set of sequences whose pairs with each other are decided
    under cfg, and decided their clone pairs; those pairs are read, not
    decided again. Every other pair of distinct sequences is decided by
    clone_lcs if the prefix index (_candidates) makes it a candidate, and
    is provably no clone if not (see the module docstring).
    """
    eligible = sorted(origin for origin, lines in table.items() if within_window(len(lines), cfg))
    groups: dict[tuple, list[int]] = {}
    for i, origin in enumerate(eligible):
        groups.setdefault(table[origin], []).append(i)
    if not cfg.max_difference:
        return eligible, groups, []
    clones = [c for c in decided if c[0] in groups and c[1] in groups]
    old = [lines for lines in groups if lines in known]
    new = [lines for lines in groups if lines not in known]
    for la, lb in _candidates(old, new, cfg):
        lcs = clone_lcs(la, lb, cfg)
        if lcs is not None:
            clones.append((la, lb, lcs))
    return eligible, groups, clones


def _pair_tuples(eligible, groups, clones) -> list[tuple[int, int, int, int]]:
    """(i, j, lcs, max_len) for each clone pair of fragments that decisions
    stand for, i < j indices into eligible, in canonical order.

    Each (i, j) occurs once, so the sort key can be the one int i * n + j;
    sorting on it takes about half the time of sorting the tuples.
    """
    found = []
    for lines, g in groups.items():
        # A group lists its fragments in ascending order.
        n = len(lines)
        found += [(i, j, n, n) for i, j in itertools.combinations(g, 2)]
    for la, lb, lcs in clones:
        hi = max(len(la), len(lb))
        found += [
            (i, j, lcs, hi) if i < j else (j, i, lcs, hi) for i, j in itertools.product(groups[la], groups[lb])
        ]
    n = len(eligible)
    found.sort(key=lambda p: p[0] * n + p[1])
    return found


def _fragment_pairs(eligible, groups, clones) -> list[ClonePair]:
    """The clone pairs of fragments that decisions stand for, in canonical order."""
    return [
        ClonePair(eligible[i], eligible[j], lcs_len=lcs, max_len=hi)
        for i, j, lcs, hi in _pair_tuples(eligible, groups, clones)
    ]


def detect_pairs(fragments, cfg: CloneConfig) -> list[ClonePair]:
    """All clone pairs among normalized fragments, in canonical (left, right) order.

    The last fragment given for an origin stands for it, so an origin
    never pairs with itself; fragments outside [min_lines, max_lines]
    never pair.
    """
    return _fragment_pairs(*_sequence_pairs(_table(fragments, cfg), cfg))


def _components(edges) -> list[list]:
    """Connected components of the graph of edges."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for x, y in edges:
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    groups: dict = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _classes(components) -> list[CloneClass]:
    """Clone classes of components of refs: sorted members, id from their uids."""
    classes = []
    for members in components:
        members = sorted(members)
        blob = "\n".join(m.uid for m in members).encode("utf-8")
        classes.append(
            CloneClass(
                class_id=hashlib.sha1(blob).hexdigest()[:16],
                members=tuple(members),
            )
        )
    classes.sort(key=lambda c: c.members[0])
    return classes


def cluster_classes(pairs) -> list[CloneClass]:
    """Connected components of the pair graph; every class has >= 2 members."""
    return _classes(_components((p.left, p.right) for p in pairs))


def _sequence_classes(eligible, groups, clones) -> list[CloneClass]:
    """cluster_classes(_fragment_pairs(...)), without building a pair.

    The fragments of one sequence are joined through the first of them,
    two clone sequences through the first fragment of each.
    """
    edges = [(g[0], i) for g in groups.values() for i in g[1:]]
    edges += [(groups[la][0], groups[lb][0]) for la, lb, _ in clones]
    return _classes([[eligible[i] for i in comp] for comp in _components(edges)])


def clone_classes(table, cfg: CloneConfig) -> list[CloneClass]:
    """The clone classes of a fragment table {origin: lines}: those of
    cluster_classes over its clone pairs, without building a pair."""
    return _sequence_classes(*_sequence_pairs(table, cfg))


def class_row(cls: CloneClass, table, exemplar) -> dict:
    """Report row of a clone class: every member with the similarity of its
    lines in table to the exemplar lines."""
    return {
        "class_id": cls.class_id,
        "members": [
            {
                "contract_id": m.contract_id,
                "name": m.name,
                "start_line": m.start_line,
                "end_line": m.end_line,
                "similarity_to_exemplar": similarity(table[m], exemplar),
            }
            for m in cls.members
        ],
    }
