"""Seeded corpus generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments and
returns a GenCorpus: the .sol files the program sees plus the truths the
benchmark planted by construction (clone groups, expected signature hits,
label-pure and mixed families). Nothing here imports the program or its
tests, so edits to either cannot shift a workload.

Why each corpus looks the way it does:

- redundant: the acceptance-8 throughput corpus, recipe copied verbatim
  and always drawn with that test's seed 8. Five templates with shared
  identifier prefixes, so 30,000 fragments collapse to 600 distinct
  consistent sequences. Template 0 without padding is the re-entrancy
  exemplar under another name, so 1,507 fragments hit two builtin
  signatures and feed one cross class whose pair search is quadratic in
  that count. A smaller `contracts` gives a prefix of the same draw. The
  benchmark seed only permutes which file each contract is written to:
  the scan does the same work for every seed, and the report (ids,
  digests) still differs per seed.
- diverse and versions draw statement counts and block counts from a
  fixed rotation rather than at random, so every seed has the same
  fragment-length multiset and the same number of pairs past the size
  filter; only the code differs. Otherwise the quadratic pair count would
  swing the clones timing by several percent between seeds.
- diverse: functions of 3-12 statements with random literals and shapes,
  so almost every line is unique after renaming and deduplication finds
  nothing. Near-miss families (each member differs from the family base in
  at most one literal) and renamed builtin-signature mutants are planted
  so that recall is checkable.
- labeled: one family member plus one diverse function per contract.
  Label-pure families must each yield one derived signature; mixed-label
  families must land in review.json.
- versions: diverse contracts spread over pragma buckets ^0.4-^0.8 and
  unknown, with exact and near-miss copies of the labeled families'
  exemplars planted, so evolve has something to find in every bucket.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

# ------------------------------------------------------------------ redundant


def _varied_function(template: int, prefix: str, name: str, extras: int) -> str:
    p = prefix
    bodies = {
        0: [
            f"if ({p}credit >= {p}amt) msg.sender.call.value({p}amt)();",
            f"{p}credit -= {p}amt;",
        ],
        1: [
            f"for (uint {p}i = 0; {p}i < {p}count; {p}i++) {{",
            f"    {p}total += {p}i;",
            "}",
        ],
        2: [f"require({p}x > 0);", f"{p}y = {p}x + 1;"],
        3: [f"{p}store[msg.sender] = {p}val;", f"{p}log = {p}val;"],
        4: [f"{p}a = {p}b;", f"{p}b = {p}c;", f"{p}c = {p}a;"],
    }
    lines = bodies[template] + [f"{p}pad{k} = {k};" for k in range(extras)]
    body = "\n".join(f"        {line}" for line in lines)
    return f"    function {name}(uint {p}amt) public {{\n{body}\n    }}"


def _wrap_a8(body: str) -> str:
    return f"pragma solidity ^0.4.10;\ncontract C {{\n{body}\n}}\n"


@dataclass
class GenCorpus:
    files: dict[str, str] = field(default_factory=dict)  # relative path -> source
    # Sets of (contract id, function name) whose members are pairwise clones.
    groups: list[list[tuple[str, str]]] = field(default_factory=list)
    # (contract id, function name) -> builtin signature ids that must fire.
    builtin_hits: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    shape: dict = field(default_factory=dict)


REENTRANCY_SIGS = {"reentrancy-late-state-update", "integer-unchecked-balance-math"}


def redundant_corpus(seed: int, contracts: int = 1000, fns: int = 30) -> GenCorpus:
    """The acceptance-8 throughput corpus, its contracts shuffled over file
    names by seed; the identity order (acceptance 8 itself) when seed is None."""
    rng = random.Random(8)
    names = list(range(contracts))
    if seed is not None:
        random.Random(f"redundant:{seed}").shuffle(names)
    out = GenCorpus()
    by_shape: dict[tuple[int, int], list] = {}
    for i in range(contracts):
        cid = f"big{names[i]:04d}.sol"
        parts = []
        for j in range(fns):
            t = rng.randrange(5)
            extras = rng.randint(0, 3)
            name = f"task{t}_{j}"
            parts.append(_varied_function(t, f"p{t}n{j % 7}", name, extras))
            by_shape.setdefault((t, extras), []).append((cid, name))
            if t == 0 and extras == 0:
                # Same body as the re-entrancy exemplar; only the header differs: 4/5.
                out.builtin_hits[(cid, name)] = set(REENTRANCY_SIGS)
        out.files[cid] = _wrap_a8("\n".join(parts))
    out.files = dict(sorted(out.files.items()))
    # Same template and padding: only the function name differs, so n-1 of n lines match.
    out.groups = [members for members in by_shape.values() if len(members) > 1]
    out.shape = {"contracts": contracts, "functions_per_contract": fns}
    return out


# -------------------------------------------------------------- diverse code

_WORDS = [
    "bal", "qty", "acct", "fee", "rate", "cap", "owed", "peer", "stake", "limit",
    "pool", "quota", "tally", "nonce", "share", "vault", "epoch", "bonus", "debt", "grant",
]
_VERBS = ["settle", "quote", "audit", "clamp", "accrue", "rebase", "sweep", "route", "mint", "vest"]

# One statement each; $a $b $c are identifier slots, $L $M literal slots.
_SINGLE = [
    "$a = $b + $L;",
    "$a += $L * $b;",
    "require($a > $L);",
    "$a[$b] = $c - $L;",
    "$a[msg.sender] -= $L;",
    "emit $a($b, $L);",
    "$a = $b($c, $L);",
    "assert($a != $L);",
    "$a = $b > $L ? $c : $M;",
    "$a = uint32($b) / $L;",
    "$a = $b % $L + $c;",
    "$a = $b << $L;",
    "$a.transfer($L);",
    "$a = keccak256(abi.encodePacked($b, $L));",
    "delete $a[$L];",
]
# Multi-line statements: each normalizes to 4 lines (head, {, body, }).
_BLOCKS = [
    ["if ($a > $L) {", "    $b = $a - $M;", "}"],
    ["for (uint $a = $L; $a < $b; $a++) {", "    $c += $a * $M;", "}"],
    ["while ($a < $L) {", "    $a += $M;", "}"],
]
_PARAM_TYPES = ["uint", "address", "bool", "uint256", "bytes32"]
_VISIBILITY = ["public", "external", "internal", "public payable"]
_SLOT_RE = re.compile(r"@(\d+)|#(\d+)")


@dataclass
class FnTemplate:
    """A function with identifier slots @k and literal slots #k."""

    name: str
    lines: list[str]
    slots: int
    literals: list[int]

    def render(self, names: list[str], literals: list[int] | None = None) -> str:
        lits = self.literals if literals is None else literals

        def sub(m):
            return names[int(m.group(1))] if m.group(1) is not None else str(lits[int(m.group(2))])

        return "\n".join("    " + _SLOT_RE.sub(sub, line) for line in self.lines)


def _fresh_names(rng: random.Random, n: int) -> list[str]:
    names: set[str] = set()
    while len(names) < n:
        names.add(f"{rng.choice(_WORDS)}{rng.randrange(1000)}")
    out = sorted(names)
    rng.shuffle(out)
    return out


def _literal(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def make_template(rng: random.Random, name: str, statements: int, blocks: int) -> FnTemplate:
    """statements top-level statements, of which `blocks` are if/for/while blocks."""
    slots = 0
    literals: list[int] = []

    def fill(text: str, local: dict) -> str:
        def sub(m):
            nonlocal slots
            key = m.group(1)
            if key in "LM":
                literals.append(_literal(rng))
                return f"#{len(literals) - 1}"
            if key not in local:
                if slots and rng.random() < 0.5:
                    local[key] = rng.randrange(slots)
                else:
                    local[key] = slots
                    slots += 1
            return f"@{local[key]}"

        return re.sub(r"\$([abcLM])", sub, text)

    params = []
    for _ in range(rng.randrange(3)):
        params.append(f"{rng.choice(_PARAM_TYPES)} @{slots}")
        slots += 1
    header = f"function {name}({', '.join(params)}) {rng.choice(_VISIBILITY)} {{"
    lines = [header]
    block_at = set(rng.sample(range(statements), min(blocks, statements)))
    for k in range(statements):
        local: dict = {}
        if k in block_at:
            lines.extend("    " + fill(part, local) for part in rng.choice(_BLOCKS))
        else:
            lines.append("    " + fill(rng.choice(_SINGLE), local))
    lines.append("}")
    return FnTemplate(name=name, lines=lines, slots=slots, literals=literals)


def _mutate_literal(rng: random.Random, literals: list[int]) -> list[int]:
    """Change one literal: exactly one normalized line differs."""
    out = list(literals)
    k = rng.randrange(len(out))
    new = _literal(rng)
    while new == out[k]:
        new = _literal(rng)
    out[k] = new
    return out


def _contract(name: str, pragma: str | None, functions: list[str]) -> str:
    head = f"pragma solidity {pragma};\n" if pragma else ""
    return f"{head}contract {name} {{\n" + "\n\n".join(functions) + "\n}\n"


# Renamed builtin-signature bodies. Under consistent renaming each differs
# from its exemplar only in the function name (or not at all), so each
# must be detected by the listed builtin signatures at a 30% threshold.
_MUTANTS = [
    (
        "function $n(uint $a) {\n    if ($b >= $a)\n    msg.sender.call.value($a)();\n    $b -= $a;\n}",
        REENTRANCY_SIGS,
    ),
    ("function $n(address $a) external {\n    suicide($a);\n}", {"dos-open-suicide"}),
    ("function $n(address $a) external {\n    selfdestruct($a);\n}", {"dos-open-selfdestruct"}),
    ("function $n(uint $a) {\n    if ($b >= $a)\n    msg.sender.send($a);\n}", {"gas-unchecked-send"}),
    (
        "function $n() public returns (bool) {\n    for (uint $a = 0; $a < $b; $a++) {\n"
        "        $c.send(msg.sender);\n    }\n    return true;\n}",
        {"dos-unchecked-loop-send", "dos-require-loop-send"},
    ),
]




@dataclass
class Family:
    """A planted near-miss family: one template, members differ in one literal at most."""

    template: FnTemplate
    label: str = ""
    members: list[tuple[str, str]] = field(default_factory=list)  # (contract id, name)

    def member(self, rng: random.Random, exact: bool) -> str:
        names = _fresh_names(rng, self.template.slots)
        lits = None if exact else _mutate_literal(rng, self.template.literals)
        return self.template.render(names, lits)


def _family(rng: random.Random, serial: int, label: str = "") -> Family:
    # 6-10 one-line statements: >= 9 normalized lines, so two members that
    # each changed one literal still share >= 7/9 of their lines.
    tmpl = make_template(rng, f"{rng.choice(_VERBS)}Fam{serial}", 6 + serial % 5, blocks=0)
    return Family(template=tmpl, label=label)


@dataclass
class DiverseContract:
    cid: str
    pragma: str | None
    functions: list[tuple[str, str]]  # (name, text)

    def text(self) -> str:
        stem = self.cid.rsplit(".", 1)[0].replace("/", "_")
        return _contract(f"K{stem}", self.pragma, [f for _, f in self.functions])


_PRAGMAS = ["^0.4.24", "^0.5.17", "^0.6.12", "^0.7.6", "^0.8.19", None]


class _ContractMaker:
    def __init__(self, rng: random.Random, prefix: str):
        self.rng = rng
        self.prefix = prefix
        self.serial = 0

    def background(self) -> tuple[str, str]:
        self.serial += 1
        name = f"{self.rng.choice(_VERBS)}{self.serial}"
        # 3-12 statements, 0-2 of them blocks, in a fixed rotation.
        tmpl = make_template(self.rng, name, 3 + self.serial % 10, blocks=self.serial // 10 % 3)
        return name, tmpl.render(_fresh_names(self.rng, tmpl.slots))

    def contract(self, i: int, fns: int, pragma: str | None) -> DiverseContract:
        return DiverseContract(
            cid=f"{self.prefix}{i:04d}.sol",
            pragma=pragma,
            functions=[self.background() for _ in range(fns)],
        )


def _hosts(rng: random.Random, taken: set, cs: list[DiverseContract], k: int) -> list[int]:
    """k distinct contracts that still have a slot without a planted function."""
    free = [i for i, c in enumerate(cs) if sum((i, s) in taken for s in range(len(c.functions))) < len(c.functions)]
    if len(free) < k:
        raise ValueError(f"corpus too small to plant {k} more functions")
    return rng.sample(free, k)


def _plant(rng: random.Random, taken: set, cs: list[DiverseContract], ci: int, name: str, text: str) -> None:
    """Put a function into a random slot of contract ci that holds no planted one yet."""
    slot = rng.choice([s for s in range(len(cs[ci].functions)) if (ci, s) not in taken])
    taken.add((ci, slot))
    cs[ci].functions[slot] = (name, text)


def _plant_mutants(rng: random.Random, taken: set, cs: list[DiverseContract], out: GenCorpus,
                   count: int) -> None:
    for m in range(count):
        text, sigs = _MUTANTS[m % len(_MUTANTS)]
        a, b, c = _fresh_names(rng, 3)
        name = f"{rng.choice(_VERBS)}Legacy{m}"
        body = text.replace("$n", name).replace("$a", a).replace("$b", b).replace("$c", c)
        ci = _hosts(rng, taken, cs, 1)[0]
        _plant(rng, taken, cs, ci, name, "\n".join("    " + line for line in body.split("\n")))
        out.builtin_hits[(cs[ci].cid, name)] = set(sigs)


def diverse_corpus(seed: int, contracts: int = 130, fns: int = 8, families: int = 12,
                   family_size: int = 10, mutants: int = 5):
    """Low-duplication corpus with near-miss families and builtin mutants."""
    rng = random.Random(f"diverse:{seed}")
    b = _ContractMaker(rng, "d")
    cs = [b.contract(i, fns, rng.choice(_PRAGMAS)) for i in range(contracts)]
    out = GenCorpus()
    taken: set[tuple[int, int]] = set()
    for f in range(families):
        fam = _family(rng, f)
        for k, ci in enumerate(_hosts(rng, taken, cs, family_size)):
            _plant(rng, taken, cs, ci, fam.template.name, fam.member(rng, exact=(k == 0)))
            fam.members.append((cs[ci].cid, fam.template.name))
        out.groups.append(fam.members)
    _plant_mutants(rng, taken, cs, out, mutants)
    out.files = {c.cid: c.text() for c in cs}
    out.shape = {"contracts": contracts, "functions_per_contract": fns,
                 "families": families, "family_size": family_size, "mutants": mutants}
    return out


def edit_script(seed: int, gen: GenCorpus, share: float = 0.02) -> GenCorpus:
    """Next corpus version: append one fresh function to ~2% of contracts,
    add one new contract and remove one. Existing functions keep their text
    and line numbers, so every truth not hosted by the removed contract
    carries over."""
    rng = random.Random(f"edit:{seed}")
    b = _ContractMaker(rng, "new")
    ids = sorted(gen.files)
    picks = rng.sample(ids, max(1, round(share * len(ids))) + 1)
    removed, modified = picks[0], sorted(picks[1:])
    files = {cid: text for cid, text in gen.files.items() if cid != removed}
    for cid in modified:
        body = files[cid].rstrip("\n")[:-1]  # drop the contract's closing brace
        files[cid] = body + "\n" + b.background()[1] + "\n}\n"
    added = b.contract(0, 8, rng.choice(_PRAGMAS))
    files[added.cid] = added.text()
    out = subset(GenCorpus(files=files, groups=gen.groups, builtin_hits=gen.builtin_hits,
                           shape=dict(gen.shape)), sorted(files))
    out.shape.update(removed=removed, modified=modified, added=added.cid)
    return out


# ------------------------------------------------------------ labeled corpus

LABEL_TYPES = [
    "REENTRANCY", "DOS", "INTEGER_UO", "CALL_TO_UNKNOWN", "OUT_OF_GAS",
    "MISHANDLED_EXCEPTIONS", "WEAK_MODIFIERS",
]


@dataclass
class Labeled:
    corpus: GenCorpus
    labels: dict[str, str]  # contract id -> vuln type
    pure: list[Family]
    mixed: list[Family]


def labeled_corpus(seed: int, pure: int = 10, mixed: int = 3, family_size: int = 11) -> Labeled:
    """One family member and one diverse function per contract.

    Every member keeps the family's header and function name, so all
    members have the same normalized length; derive then picks the member
    of the smallest contract id as the exemplar, and that member is the
    unaltered base (exact=True).
    """
    rng = random.Random(f"labeled:{seed}")
    b = _ContractMaker(rng, "lab")
    fams = [_family(rng, f, LABEL_TYPES[f % len(LABEL_TYPES)]) for f in range(pure + mixed)]
    slots = [(fi, k) for fi in range(len(fams)) for k in range(family_size)]
    rng.shuffle(slots)
    # Exemplar member (k == 0) gets the lowest id of its family.
    slots.sort(key=lambda s: s[1] != 0)
    out = GenCorpus()
    labels: dict[str, str] = {}
    for i, (fi, k) in enumerate(slots):
        fam = fams[fi]
        host = b.contract(i, 1, rng.choice(_PRAGMAS))
        host.functions.insert(0, (fam.template.name, fam.member(rng, exact=(k == 0))))
        out.files[host.cid] = host.text()
        fam.members.append((host.cid, fam.template.name))
        if fi < pure:
            labels[host.cid] = fam.label
        else:
            # Alternate two labels so the class can never be label-pure.
            labels[host.cid] = LABEL_TYPES[(fi + k % 2) % len(LABEL_TYPES)]
    out.groups = [fam.members for fam in fams]
    out.shape = {"contracts": len(slots), "pure_families": pure, "mixed_families": mixed,
                 "family_size": family_size}
    return Labeled(corpus=out, labels=labels, pure=fams[:pure], mixed=fams[pure:])


def labels_csv(labels: dict[str, str]) -> str:
    return "contract_id,vuln_type\n" + "".join(f"{cid},{t}\n" for cid, t in sorted(labels.items()))


# ----------------------------------------------------------- versions corpus


@dataclass
class Planted:
    cid: str
    name: str
    bucket: str
    vuln_type: str
    exact: bool


def versions_corpus(seed: int, lab: Labeled, contracts: int = 1000, fns: int = 8,
                    per_family: int = 6, mutants: int = 5):
    """Multi-version target for evolve with planted copies of the pure families.

    An exact copy renames identifiers only, so blind:0 and consistent:30
    both detect it; a near copy also changes one literal, so only
    consistent:30 does. Returns (GenCorpus, planted copies).
    """
    rng = random.Random(f"versions:{seed}")
    b = _ContractMaker(rng, "v")
    cs = [b.contract(i, fns, _PRAGMAS[i % len(_PRAGMAS)]) for i in range(contracts)]
    out = GenCorpus()
    planted: list[Planted] = []
    taken: set[tuple[int, int]] = set()
    for fam in lab.pure:
        members = []
        for k, ci in enumerate(_hosts(rng, taken, cs, per_family)):
            exact = k % 2 == 0
            _plant(rng, taken, cs, ci, fam.template.name, fam.member(rng, exact=exact))
            bucket = f"^{cs[ci].pragma[1:4]}" if cs[ci].pragma else "unknown"
            planted.append(Planted(cs[ci].cid, fam.template.name, bucket, fam.label, exact))
            members.append((cs[ci].cid, fam.template.name))
        out.groups.append(members)
    _plant_mutants(rng, taken, cs, out, mutants)
    out.files = {c.cid: c.text() for c in cs}
    out.shape = {"contracts": contracts, "functions_per_contract": fns,
                 "planted_per_family": per_family, "mutants": mutants}
    return out, planted


def subset(gen: GenCorpus, cids: list[str]) -> GenCorpus:
    """The part of a corpus hosted by the given contracts, truths included."""
    keep = set(cids)
    groups = [[m for m in g if m[0] in keep] for g in gen.groups]
    return GenCorpus(
        files={cid: gen.files[cid] for cid in cids},
        groups=[g for g in groups if len(g) > 1],
        builtin_hits={k: v for k, v in gen.builtin_hits.items() if k[0] in keep},
        shape={**gen.shape, "contracts": len(cids)},
    )
