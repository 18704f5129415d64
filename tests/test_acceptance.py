"""Acceptance suite: nine criteria, each printing one pass/fail line.

Every test computes its evidence first, prints a single summary line
(visible even under capture), then asserts. Tolerances are exact unless a
runtime bound says otherwise.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import evolution_cell, lcs_oracle, make_contract, make_corpus, pair_key_set, wrap

from volcano.cache import AnalysisCache, incremental_scan
from volcano.clone_engine import CloneConfig, detect_pairs, lcs_length, similarity
from volcano.corpus import Corpus, sort_by_version
from volcano.detector import analyze_evolution, scan
from volcano.normalize import (
    RenamingMode,
    _declared_name,
    _renamable,
    in_mode,
    pretty_print,
    tokenize,
)
from volcano.signatures import (
    _BUILTIN,
    SignatureSet,
    VulnerabilityType,
    builtin_signatures,
    derive_signatures,
    load_signatures,
    save_signatures,
)
from volcano.extractor import extract_functions

CONSISTENT_0 = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(0))
CONSISTENT_30 = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(30, 100))
BLIND_0 = CloneConfig(mode=RenamingMode.BLIND, max_difference=Fraction(0))


def emit(capsys, criterion: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def curated_sigs() -> list:
    return [s for s in builtin_signatures() if not s.placeholder]


def listing_corpus() -> Corpus:
    """The shipped exemplar listings themselves, one contract each."""
    return Corpus(
        label="listings",
        contracts=[
            make_contract(f"listing:{slug}", source)
            for slug, _type, note, source in _BUILTIN
            if not note.startswith("placeholder:")
        ],
    )


# ---------------------------------------------------------------- criterion 1


def test_acceptance_1_signature_self_detection(capsys):
    corpus = listing_corpus()
    sigs = builtin_signatures()
    started = time.perf_counter()
    report = scan(corpus, sigs, CONSISTENT_0)
    elapsed = time.perf_counter() - started

    got = {(d.sig_id, d.target.contract_id) for d in report.detections}
    own = {(s.sig_id, f"listing:{s.sig_id}") for s in curated_sigs()}
    # two listing pairs share a normalized body, so four cross-detections
    # are forced alongside the eleven self-detections
    forced = {
        ("reentrancy-late-state-update", "listing:integer-unchecked-balance-math"),
        ("integer-unchecked-balance-math", "listing:reentrancy-late-state-update"),
        ("ctu-open-initializer", "listing:weak-open-initializer"),
        ("weak-open-initializer", "listing:ctu-open-initializer"),
    }
    types_by_sig = {s.sig_id: s.vuln_type for s in curated_sigs()}
    problems = []
    if got != own | forced:
        problems.append(f"detection set off by {got.symmetric_difference(own | forced)}")
    if any(d.similarity != 1.0 for d in report.detections):
        problems.append("similarity below 100%")
    for d in report.detections:
        if d.vuln_type is not types_by_sig[d.sig_id]:
            problems.append(f"{d.sig_id} reported {d.vuln_type.name}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")

    ok = not problems
    emit(
        capsys, "1 self-detection", ok,
        problems[0] if problems else
        f"11 exemplars self-detect at 100% (+4 forced duplicates) in {elapsed * 1000:.0f}ms",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 2


def _renamable_idents(sig) -> list[str]:
    declared = _declared_name(sig.exemplar.origin)
    seen: list[str] = []
    for line in sig.exemplar.lines:
        for token in tokenize(line):
            if token != declared and _renamable(token) and token not in seen:
                seen.append(token)
    return seen


def _as_source(lines: list[str]) -> str:
    return "contract M {\n" + "\n".join(lines) + "\n}\n"


def _bijective_mutant(sig, trial: int, rng: random.Random) -> str:
    idents = _renamable_idents(sig)
    fresh = [f"mut{trial}q{k}" for k in range(len(idents))]
    rng.shuffle(fresh)
    table = dict(zip(idents, fresh))
    lines = [
        " ".join(table.get(t, t) for t in tokenize(line)) for line in sig.exemplar.lines
    ]
    return _as_source(lines)


def _edit_mutant(sig, trial: int, rng: random.Random) -> str:
    lines = list(sig.exemplar.lines)
    if rng.random() < 0.5:
        # insert a line reusing the first-ranked identifier: consistent
        # numbering of every original line is untouched
        anchor = _renamable_idents(sig)[0]
        spots = [
            j for j in range(2, len(lines))
            if lines[j - 1] == "{" or lines[j - 1].endswith(";")
        ]
        lines.insert(rng.choice(spots), f"{anchor} = {trial} ;")
    else:
        victims = [j for j in range(1, len(lines) - 1) if lines[j] not in ("{", "}")]
        del lines[rng.choice(victims)]
    return _as_source(lines)


def test_acceptance_2_mutation_recall(capsys):
    rng = random.Random(20260814)
    problems = []
    totals = {"bijective": 0, "edited": 0}
    for sig in curated_sigs():
        alone = SignatureSet(signatures=[sig], provenance="one")
        renamed = make_corpus(
            f"{sig.sig_id}-renamed",
            {f"a{t}": _bijective_mutant(sig, t, rng) for t in range(20)},
        )
        edited = make_corpus(
            f"{sig.sig_id}-edited",
            {f"b{t}": _edit_mutant(sig, t, rng) for t in range(20)},
        )
        totals["bijective"] += 20
        totals["edited"] += 20

        for threshold, want in ((CONSISTENT_30, 20), (CONSISTENT_0, 20)):
            hits = {d.target.contract_id for d in scan(renamed, alone, threshold).detections}
            if len(hits) != want:
                problems.append(
                    f"{sig.sig_id}: {len(hits)}/20 renamings at {threshold.max_difference}"
                )
        hits30 = {d.target.contract_id for d in scan(edited, alone, CONSISTENT_30).detections}
        if len(hits30) != 20:
            problems.append(f"{sig.sig_id}: {len(hits30)}/20 edits at 30%")
        hits0 = scan(edited, alone, CONSISTENT_0).detections
        if hits0:
            problems.append(f"{sig.sig_id}: {len(hits0)} edits leaked through 0%")

    ok = not problems
    emit(
        capsys, "2 mutation recall", ok,
        problems[0] if problems else
        f"{totals['bijective']} renamings: 100% at 0% and 30%; "
        f"{totals['edited']} one-line edits: 100% at 30%, 0% at 0%",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 3

BENIGN_SOURCES = {
    "bank.sol": wrap(
        "\n".join(
            [
                "    function withdraw(uint amount) public {",
                "        require(balances[msg.sender] >= amount);",
                "        balances[msg.sender] -= amount;",
                "        msg.sender.transfer(amount);",
                "    }",
                "    function deposit() public payable {",
                "        balances[msg.sender] += msg.value;",
                "    }",
                "    function balanceOf(address who) public view returns (uint) {",
                "        return balances[who];",
                "    }",
            ]
        )
    ),
    "admin.sol": wrap(
        "\n".join(
            [
                "    constructor(address firstOwner) public {",
                "        owner = firstOwner;",
                "    }",
                "    modifier onlyOwner() {",
                "        require(msg.sender == owner);",
                "        _;",
                "    }",
                "    function kill(address heir) external {",
                "        require(msg.sender == owner);",
                "        selfdestruct(heir);",
                "    }",
                "    function transferOwnership(address candidate) public {",
                "        require(msg.sender == owner);",
                "        pendingOwner = candidate;",
                "    }",
            ]
        )
    ),
    "loops.sol": wrap(
        "\n".join(
            [
                "    function sumAll(uint[] memory values) public pure returns (uint) {",
                "        uint total = 0;",
                "        for (uint i = 0; i < values.length; i++) {",
                "            total += values[i];",
                "        }",
                "        return total;",
                "    }",
                "    function indexOf(uint[] memory values, uint needle) public pure returns (uint) {",
                "        for (uint i = 0; i < values.length; i++) {",
                "            if (values[i] == needle) return i;",
                "        }",
                "        return values.length;",
                "    }",
                "    function fill(uint count) public {",
                "        for (uint i = 0; i < count; i++) {",
                "            slots.push(i);",
                "        }",
                "    }",
            ]
        )
    ),
    "math.sol": wrap(
        "\n".join(
            [
                "    function add(uint a, uint b) public pure returns (uint) {",
                "        uint c = a + b;",
                "        require(c >= a);",
                "        return c;",
                "    }",
                "    function sub(uint a, uint b) public pure returns (uint) {",
                "        require(b <= a);",
                "        return a - b;",
                "    }",
                "    function mul(uint a, uint b) public pure returns (uint) {",
                "        if (a == 0) return 0;",
                "        uint c = a * b;",
                "        require(c / a == b);",
                "        return c;",
                "    }",
                "    function average(uint a, uint b) public pure returns (uint) {",
                "        return (a / 2) + (b / 2) + (((a % 2) + (b % 2)) / 2);",
                "    }",
            ]
        )
    ),
    "token.sol": wrap(
        "\n".join(
            [
                "    function transfer(address to, uint value) public returns (bool) {",
                "        require(balances[msg.sender] >= value);",
                "        balances[msg.sender] -= value;",
                "        balances[to] += value;",
                "        emit Transfer(msg.sender, to, value);",
                "        return true;",
                "    }",
                "    function approve(address spender, uint value) public returns (bool) {",
                "        allowed[msg.sender][spender] = value;",
                "        emit Approval(msg.sender, spender, value);",
                "        return true;",
                "    }",
                "    function allowance(address tokenOwner, address spender) public view returns (uint) {",
                "        return allowed[tokenOwner][spender];",
                "    }",
            ]
        )
    ),
    "misc.sol": wrap(
        "\n".join(
            [
                "    function ping() public pure returns (bool) {",
                "        return true;",
                "    }",
                "    function setGreeting(string memory fresh) public {",
                "        greeting = fresh;",
                "    }",
                "    function currentTime() public view returns (uint) {",
                "        return block.timestamp;",
                "    }",
                "    function guardedSend(address payable to, uint amount) public {",
                "        require(msg.sender == owner);",
                "        require(address(this).balance >= amount);",
                "        to.transfer(amount);",
                "    }",
                "    function lockUntil(uint releaseTime) public {",
                "        require(releaseTime > now);",
                "        unlockAt[msg.sender] = releaseTime;",
                "    }",
            ]
        )
    ),
}

# the one intentional near-miss: a guarded kill sits one require-line away
# from the unguarded self-destruct exemplar, well inside a 30% edit budget
EXPECTED_NEAR_MISSES = {
    ("dos-open-selfdestruct", "admin.sol", "kill"):
        "access-guarded kill(): identical shape to the open self-destruct "
        "exemplar except one require(msg.sender == owner) line; flagged by "
        "design at 30%, rejected at 0%",
}


def test_acceptance_3_benign_rejection(capsys, tmp_path):
    corpus = make_corpus("benign", BENIGN_SOURCES)
    sigs = builtin_signatures()
    fragment_count = sum(len(extract_functions(c)) for c in corpus)

    problems = []
    if fragment_count < 20:
        problems.append(f"only {fragment_count} benign fragments")
    for cfg in (CONSISTENT_0, BLIND_0):
        strict = scan(corpus, sigs, cfg).detections
        if strict:
            problems.append(f"{len(strict)} detections at 0% in {cfg.mode.value}")

    review_rows = []
    loose = scan(corpus, sigs, CONSISTENT_30)
    for d in loose.detections:
        key = (d.sig_id, d.target.contract_id, d.target.name)
        justification = EXPECTED_NEAR_MISSES.get(key)
        if justification is None:
            problems.append(f"unjustified 30% detection {key}")
            justification = "UNEXPECTED"
        review_rows.append({**d.to_dict(), "justification": justification})
    if {tuple(k) for k in EXPECTED_NEAR_MISSES} != {
        (d.sig_id, d.target.contract_id, d.target.name) for d in loose.detections
    }:
        problems.append("expected near-miss set mismatch")

    review_path = tmp_path / "benign-review.json"
    review_path.write_text(
        json.dumps(
            {"corpus": "benign", "mode": "consistent", "threshold": "30%", "detections": review_rows},
            indent=2, sort_keys=True,
        )
        + "\n"
    )

    ok = not problems
    emit(
        capsys, "3 benign rejection", ok,
        problems[0] if problems else
        f"{fragment_count} safe fragments: 0 detections at 0% (both modes); "
        f"{len(review_rows)} justified near-miss at 30% -> {review_path.name}",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 4


def test_acceptance_4_lcs_oracle_equivalence(capsys):
    alphabet = "abc"
    short = [
        "".join(p)
        for n in range(0, 5)
        for p in itertools.product(alphabet, repeat=n)
    ]
    checked = 0
    problems = []
    for a in short:
        for b in short:
            if lcs_length(a, b) != lcs_oracle(a, b):
                problems.append(f"exhaustive mismatch {a!r} vs {b!r}")
            checked += 1

    rng = random.Random(42)
    for _ in range(10_000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        want = lcs_oracle(a, b)
        if lcs_length(a, b) != want:
            problems.append(f"random mismatch {a!r} vs {b!r}")
        if a and b:
            sim = similarity(tuple(a), tuple(b))
            if sim != want / max(len(a), len(b)):
                problems.append(f"similarity mismatch {a!r} vs {b!r}")
        checked += 1
        if problems:
            break

    ok = not problems
    emit(
        capsys, "4 LCS oracle", ok,
        problems[0] if problems else
        f"{checked} pairs (all <=4 exhaustively, 10000 random <=8) match the enumeration oracle",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 5


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


def _random_corpus(rng: random.Random, contracts: int, fns_per_contract: int, label: str) -> Corpus:
    sources = {}
    for i in range(contracts):
        fns = []
        for j in range(fns_per_contract):
            t = rng.randrange(5)
            shared = rng.random() < 0.7
            prefix = f"p{t}" if shared else f"u{i}{j}"
            fns.append(_varied_function(t, prefix, f"job{t}", rng.randint(0, 2)))
        sources[f"c{i:03d}"] = wrap("\n".join(fns))
    return make_corpus(label, sources)


def test_acceptance_5_monotonicity_and_hierarchy(capsys):
    rng = random.Random(5)
    corpus = _random_corpus(rng, 100, 2, "mono")
    none_frags = [pretty_print(f) for c in corpus for f in extract_functions(c)]
    fragment_count = len(none_frags)

    problems = []
    thresholds = [Fraction(0), Fraction(10, 100), Fraction(20, 100), Fraction(30, 100)]
    per_mode: dict[RenamingMode, list[set]] = {}
    for mode in (RenamingMode.NONE, RenamingMode.BLIND, RenamingMode.CONSISTENT):
        frags = [in_mode(nf, mode) for nf in none_frags]
        chain = [
            pair_key_set(detect_pairs(frags, CloneConfig(mode=mode, max_difference=t)))
            for t in thresholds
        ]
        per_mode[mode] = chain
        for lo, hi in zip(chain, chain[1:]):
            if not lo <= hi:
                problems.append(f"{mode.value}: threshold chain not monotone")
    for t_index, t in enumerate(thresholds):
        if not per_mode[RenamingMode.CONSISTENT][t_index] <= per_mode[RenamingMode.BLIND][t_index]:
            problems.append(f"consistent not within blind at {t}")

    ok = not problems
    pair_counts = [len(s) for s in per_mode[RenamingMode.CONSISTENT]]
    emit(
        capsys, "5 monotonicity", ok,
        problems[0] if problems else
        f"{fragment_count} fragments; consistent pairs {pair_counts} grow with the "
        "threshold in every mode and stay within blind",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 6


def _canonical_clone_report(pairs, classes, *_) -> bytes:
    doc = {
        "pairs": [
            {"left": p.left.uid, "right": p.right.uid, "lcs": p.lcs_len, "max": p.max_len}
            for p in pairs
        ],
        "classes": [
            {"id": c.class_id, "members": [m.uid for m in c.members]} for c in classes
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def test_acceptance_6_incremental_equivalence(capsys):
    rng = random.Random(6)
    cfg = CloneConfig(mode=RenamingMode.BLIND, max_difference=Fraction(30, 100))
    sources = {
        f"c{i:03d}": _random_corpus(rng, 1, 2, "seed").contracts[0].source_text
        for i in range(100)
    }
    corpus = make_corpus("evolving", sources)
    cache = AnalysisCache.empty(cfg)
    incremental_scan(cache, corpus, cfg)

    problems = []
    fresh_serial = 0
    for step in range(50):
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(["add", "modify", "remove"])
            if op == "add" or len(sources) < 5:
                fresh_serial += 1
                sources[f"n{fresh_serial:03d}"] = (
                    _random_corpus(rng, 1, 2, "seed").contracts[0].source_text
                )
            elif op == "modify":
                victim = rng.choice(sorted(sources))
                sources[victim] = _random_corpus(rng, 1, 2, "seed").contracts[0].source_text
            else:
                sources.pop(rng.choice(sorted(sources)))
        corpus = make_corpus("evolving", sources)
        incremental = _canonical_clone_report(*incremental_scan(cache, corpus, cfg))
        scratch = _canonical_clone_report(
            *incremental_scan(AnalysisCache.empty(cfg), corpus, cfg)
        )
        if incremental != scratch:
            problems.append(f"sequence {step} diverged at {len(sources)} contracts")
            break

    ok = not problems
    emit(
        capsys, "6 incremental equivalence", ok,
        problems[0] if problems else
        "50 add/modify/remove sequences over a ~100-contract corpus: "
        "incremental reports byte-identical to from-scratch",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 7


def test_acceptance_7_version_bucketing_and_na(capsys):
    sources = {
        "ancient": wrap("    function greet() public { hello = 1; }", pragma="pragma solidity ^0.3.6;"),
        "caret4": wrap(
            "    function kill(address bad) external { suicide(bad); }",
            pragma="pragma solidity ^0.4.10;",
        ),
        "range4": wrap(
            "    function kill(address worse) external { suicide(worse); }",
            pragma="pragma solidity >=0.4.22 <0.6.0;",
        ),
        "exact5": wrap("    function calc(uint a) public { t = a; }", pragma="pragma solidity 0.5.0;"),
        "tilde6": wrap("    function calc(uint a) public { t = a; }", pragma="pragma solidity ~0.6.2;"),
        "orcase": wrap(
            "    function calc(uint a) public { t = a; }",
            pragma="pragma solidity ^0.4.0 || ^0.6.0;",
        ),
        "nopragma": "contract C { function calc(uint a) public { t = a; } }",
    }
    corpus = make_corpus("versions", sources)
    buckets = sort_by_version(corpus)
    want = {
        "^0.3": ["ancient"],
        "^0.4": ["caret4", "orcase", "range4"],
        "^0.5": ["exact5"],
        "^0.6": ["tilde6"],
        "unknown": ["nopragma"],
    }
    problems = []
    got = {bucket: sorted(c.id for c in members) for bucket, members in buckets.items()}
    if got != want:
        problems.append(f"bucketing {got}")
    if list(buckets) != ["^0.3", "^0.4", "^0.5", "^0.6", "unknown"]:
        problems.append(f"bucket order {list(buckets)}")

    report = analyze_evolution(corpus, builtin_signatures(), [CONSISTENT_30])
    cell = evolution_cell(report, "consistent", "^0.3", "REENTRANCY")
    if cell["class_count"] != 0 or cell["min_similarity"] is not None:
        problems.append(f"^0.3 reentrancy cell {cell}")
    hit = evolution_cell(report, "consistent", "^0.4", "DOS")
    if hit["class_count"] != 1:
        problems.append(f"^0.4 DOS cell {hit}")

    ok = not problems
    emit(
        capsys, "7 version bucketing", ok,
        problems[0] if problems else
        "caret/range/exact/tilde/or/missing pragmas bucket exactly; "
        "empty ^0.3 re-entrancy cell reports NA",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 8


def _throughput_corpus(contracts: int, fns: int) -> Corpus:
    rng = random.Random(8)
    sources = {}
    for i in range(contracts):
        parts = []
        for j in range(fns):
            t = rng.randrange(5)
            parts.append(
                _varied_function(t, f"p{t}n{j % 7}", f"task{t}_{j}", rng.randint(0, 3))
            )
        sources[f"big{i:04d}"] = wrap("\n".join(parts))
    return make_corpus("throughput", sources)


def test_acceptance_8_throughput(capsys):
    corpus = _throughput_corpus(1000, 30)
    sigs = builtin_signatures()
    started = time.perf_counter()
    report = scan(corpus, sigs, CONSISTENT_30)
    wall = time.perf_counter() - started

    problems = []
    if report.contract_count != 1000:
        problems.append(f"{report.contract_count} contracts scanned")
    if report.average_ms > 1000.0:
        problems.append(f"average {report.average_ms:.1f}ms per contract")
    if wall > 300.0:
        problems.append(f"wall time {wall:.1f}s")

    ok = not problems
    emit(
        capsys, "8 throughput", ok,
        problems[0] if problems else
        f"1000 contracts x 30 functions: average {report.average_ms:.2f}ms/contract, "
        f"wall {wall:.1f}s (bounds: 1s avg, 300s total)",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 9

DERIVATION_TEMPLATES = {
    # type -> three structurally distinct patterns
    VulnerabilityType.REENTRANCY: [
        [
            "function cashOut(uint amount) public {",
            "    if (credit[msg.sender] >= amount)",
            "        msg.sender.call.value(amount)();",
            "    credit[msg.sender] -= amount;",
            "}",
        ],
        [
            "function withdrawAll() public {",
            "    uint owed = credit[msg.sender];",
            "    msg.sender.call.value(owed)();",
            "    credit[msg.sender] = 0;",
            "}",
        ],
        [
            "function refund(address patron) public {",
            "    patron.call.value(refunds[patron])();",
            "    refunds[patron] = 0;",
            "}",
        ],
    ],
    VulnerabilityType.DOS: [
        [
            "function evict(address squatter) external {",
            "    suicide(squatter);",
            "}",
        ],
        [
            "function purge() public {",
            "    for (uint i = 0; i < members.length; i++) {",
            "        members[i].send(dividend);",
            "    }",
            "}",
        ],
        [
            "function refundEveryone() public {",
            "    require(queue.send(payout));",
            "    pending = 0;",
            "}",
        ],
    ],
    VulnerabilityType.CALL_TO_UNKNOWN: [
        [
            "function boot() public {",
            "    chief = msg.sender;",
            "}",
        ],
        [
            "function () payable {",
            "    vault.delegatecall(msg.data);",
            "}",
        ],
        [
            "function proxyCall(address target, bytes memory blob) public {",
            "    target.delegatecall(blob);",
            "}",
        ],
    ],
    VulnerabilityType.INTEGER_UO: [
        [
            "function mint(uint extra) public {",
            "    supply += extra;",
            "}",
        ],
        [
            "function burn(uint fewer) public {",
            "    supply -= fewer;",
            "    checkpoints += 1;",
            "}",
        ],
        [
            "function scale(uint factor) public {",
            "    supply = supply * factor;",
            "    ledger[msg.sender] = ledger[msg.sender] * factor;",
            "}",
        ],
    ],
}


def _plant_class(template: list[str], members: int, tag: str, rng: random.Random) -> list[str]:
    """2-3 member variants: bijective renames plus one trailing insert."""
    declared = None
    texts = []
    base = wrap("\n".join(f"    {line}" for line in template))
    texts.append(base)
    base_nf = pretty_print(extract_functions(make_contract("seed", base))[0])
    declared = _declared_name(base_nf.origin)
    idents = []
    for line in base_nf.lines:
        for token in tokenize(line):
            if token != declared and _renamable(token) and token not in idents:
                idents.append(token)
    for m in range(1, members):
        table = {ident: f"{tag}v{m}n{k}" for k, ident in enumerate(idents)}
        lines = [
            " ".join(table.get(t, t) for t in tokenize(line)) for line in base_nf.lines
        ]
        if m == 2 and idents:
            lines.insert(len(lines) - 1, f"{table[idents[0]]} = {m} ;")
        texts.append("contract M {\n" + "\n".join(lines) + "\n}\n")
    return texts


def test_acceptance_9_derivation_round_trip(capsys, tmp_path):
    rng = random.Random(9)
    sources: dict[str, str] = {}
    labels: dict[str, VulnerabilityType] = {}
    class_sizes = itertools.cycle([3, 2])
    for vuln_type, templates in DERIVATION_TEMPLATES.items():
        for t_index, template in enumerate(templates):
            members = next(class_sizes)
            tag = f"{vuln_type.name[:3].lower()}{t_index}"
            for m_index, text in enumerate(_plant_class(template, members, tag, rng)):
                cid = f"{tag}m{m_index}"
                sources[cid] = text
                labels[cid] = vuln_type

    problems = []
    if len(sources) != 30:
        problems.append(f"{len(sources)} contracts planted")
    corpus = make_corpus("mini", sources)
    review = tmp_path / "derive-review.json"
    sigs = derive_signatures(corpus, labels, CONSISTENT_30, review_path=review)

    if len(sigs) != 12:
        problems.append(f"{len(sigs)} signatures derived")
    histogram: dict[str, int] = {}
    for s in sigs:
        histogram[s.vuln_type.name] = histogram.get(s.vuln_type.name, 0) + 1
    if histogram != {"REENTRANCY": 3, "DOS": 3, "CALL_TO_UNKNOWN": 3, "INTEGER_UO": 3}:
        problems.append(f"type histogram {histogram}")
    mixed = json.loads(review.read_text())["mixed_classes"]
    if mixed:
        problems.append(f"{len(mixed)} mixed classes")
    for s in sigs:
        member_label = labels[s.exemplar.origin.contract_id]
        if member_label is not s.vuln_type:
            problems.append(f"{s.sig_id} exemplar label {member_label}")

    out_dir = tmp_path / "sigs"
    save_signatures(sigs, out_dir)
    loaded = load_signatures(out_dir)
    as_tuple = lambda ss: sorted(
        (s.sig_id, s.vuln_type.name, s.exemplar.lines, s.placeholder) for s in ss
    )
    if as_tuple(loaded) != as_tuple(sigs):
        problems.append("save->load changed the set")

    ok = not problems
    emit(
        capsys, "9 derivation round-trip", ok,
        problems[0] if problems else
        "30 contracts, 12 planted classes -> exactly 12 pure signatures; "
        "save->load extensionally equal",
    )
    assert ok, problems
