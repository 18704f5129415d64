"""Vulnerability signatures: the built-in set, derivation, load/save.

A signature is a normalized exemplar fragment tagged with a vulnerability
type. On disk a signature set is plain annotated Solidity: each function
is preceded by a `// @volcano:vuln=<TYPE>` comment line, with an optional
manifest.json carrying ids and provenance.

Derivation clusters a labeled corpus with the clone engine and keeps one
exemplar per label-pure clone class; classes whose members disagree on
the label are routed to a review file instead of the set.
"""

from __future__ import annotations

import enum
import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .clone_engine import CloneConfig, cluster_classes, detect_pairs
from .corpus import Corpus, SourceContract
from .errors import (
    MalformedLabels,
    MalformedManifest,
    MissingAnnotation,
    UnknownType,
    UnlabeledContract,
)
from .normalize import NormalizedFragment, RenamingMode, in_mode, normalize_contract

log = logging.getLogger(__name__)

ANNOTATION_PREFIX = "@volcano:vuln="
_ANNOT_RE = re.compile(r"//\s*@volcano:vuln=([A-Za-z_]+)\s*$")


class VulnerabilityType(enum.Enum):
    REENTRANCY = "REENTRANCY"
    DOS = "DOS"
    INTEGER_UO = "INTEGER_UO"
    CALL_TO_UNKNOWN = "CALL_TO_UNKNOWN"
    OUT_OF_GAS = "OUT_OF_GAS"
    MISHANDLED_EXCEPTIONS = "MISHANDLED_EXCEPTIONS"
    MISMATCHED_TYPECASTING = "MISMATCHED_TYPECASTING"
    WEAK_MODIFIERS = "WEAK_MODIFIERS"


def parse_vuln_type(name: str) -> VulnerabilityType:
    try:
        return VulnerabilityType[name.strip().upper()]
    except KeyError:
        raise UnknownType(f"unknown vulnerability type {name!r}") from None


@dataclass(frozen=True)
class VulnSignature:
    sig_id: str
    vuln_type: VulnerabilityType
    exemplar: NormalizedFragment  # always mode NONE
    source_listing: str = ""
    placeholder: bool = False

    def exemplar_in(self, mode: RenamingMode) -> NormalizedFragment:
        return in_mode(self.exemplar, mode)


@dataclass
class SignatureSet:
    signatures: list[VulnSignature] = field(default_factory=list)
    provenance: str = ""

    def __post_init__(self):
        ids = [s.sig_id for s in self.signatures]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate signature ids: {dupes}")

    def __iter__(self):
        return iter(self.signatures)

    def __len__(self) -> int:
        return len(self.signatures)


def _exemplars(contract_id: str, source: str) -> list[NormalizedFragment]:
    """The mode-NONE fragments of one signature source text."""
    contract = SourceContract(
        id=contract_id,
        source_text=source,
        content_digest=hashlib.sha256(source.encode("utf-8")).hexdigest(),
    )
    return normalize_contract(contract, RenamingMode.NONE)


# Built-in exemplars. The re-entrancy and integer over/underflow entries
# share one body, as do the owner-initialization and weak-modifiers ones:
# the same code is exploitable both ways, so both signatures ship. The
# typecasting entry is a stand-in written here, not drawn from a
# vulnerability corpus, and is excluded from any quality accounting.
_BUILTIN = [
    (
        "ctu-open-initializer",
        "CALL_TO_UNKNOWN",
        "builtin: public initializer lets any caller become owner",
        "function initialize() public {\n\tnew_owner = msg.sender;\n}",
    ),
    (
        "ctu-fallback-delegatecall",
        "CALL_TO_UNKNOWN",
        "builtin: fallback delegatecalls attacker-supplied calldata",
        "function() payable {\n    if (msg.data.length > 0)\n      owner.delegatecall(msg.data);\n  }",
    ),
    (
        "dos-open-suicide",
        "DOS",
        "builtin: externally callable suicide",
        "function kill(address malicious) external {\n    suicide(malicious);\n    }",
    ),
    (
        "dos-open-selfdestruct",
        "DOS",
        "builtin: externally callable selfdestruct",
        "function kill(address malicious) external {\n    selfdestruct(malicious);\n    }",
    ),
    (
        "dos-unchecked-loop-send",
        "DOS",
        "builtin: loop of unchecked sends",
        "function sendPayments() public returns (bool){\n"
        "         for(uint i=0;i<n;i++) {\n"
        "            addresses.send(msg.sender);\n"
        "        }    return true;\n"
        "    }",
    ),
    (
        "dos-require-loop-send",
        "DOS",
        "builtin: loop whose require on send can wedge the whole payout",
        "function sendPayments() public returns (bool){\n"
        "         for(uint i=0;i<n;i++) {\n"
        "             require(addresses.send(msg.sender));\n"
        "        }    \n"
        "        return true;\n"
        "    }",
    ),
    (
        "reentrancy-late-state-update",
        "REENTRANCY",
        "builtin: external call before the balance update",
        "function externalSend(uint amountToSend) {\n"
        "\tif(balance >= amountToSend)\n"
        "\tmsg.sender.call.value(amountToSend)();\n"
        "\tbalance -= amountToSend; //state variable updated after external call function is executed\n"
        "}",
    ),
    (
        "integer-unchecked-balance-math",
        "INTEGER_UO",
        "builtin: unguarded balance arithmetic around an external call"
        " (exemplar body coincides with reentrancy-late-state-update)",
        "function externalSend(uint amountToSend) {\n"
        "\tif(balance >= amountToSend)\n"
        "\tmsg.sender.call.value(amountToSend)();\n"
        "\tbalance -= amountToSend; //\n"
        "}",
    ),
    (
        "misex-ignored-call-result",
        "MISHANDLED_EXCEPTIONS",
        "builtin: low-level call result never checked",
        "function externalCall(uint str) {\n"
        "\tmsg.sender.delegateCall(str); //without checking for return value\n"
        "}",
    ),
    (
        "weak-open-initializer",
        "WEAK_MODIFIERS",
        "builtin: missing access modifier on an owner-setting function"
        " (exemplar body coincides with ctu-open-initializer)",
        "function initialize() public { //weak access modifier for the function initialize\n"
        "\tnew_owner = msg.sender;\n"
        "}",
    ),
    (
        "gas-unchecked-send",
        "OUT_OF_GAS",
        "builtin: gasless send inside a guard",
        "function externalSend(uint amountToSend) {\n"
        "\tif(balance >= amountToSend)\n"
        "\t msg.sender.send(amountToSend); //gasless-send\n"
        "}",
    ),
    (
        "typecast-narrowing-placeholder",
        "MISMATCHED_TYPECASTING",
        "placeholder: silent narrowing cast; not drawn from an exemplar corpus,"
        " excluded from quality accounting",
        "function recordDeposit(uint256 amount) public {\n"
        "    uint8 small = uint8(amount);\n"
        "    deposits[msg.sender] = small;\n"
        "}",
    ),
]


def builtin_signatures() -> SignatureSet:
    """The shipped signature set; the typecasting entry is a marked placeholder."""
    sigs = []
    for slug, type_name, note, source in _BUILTIN:
        exemplars = _exemplars(f"builtin:{slug}", source)
        if len(exemplars) != 1:
            raise ValueError(f"builtin:{slug}: expected exactly one function, got {len(exemplars)}")
        sigs.append(
            VulnSignature(
                sig_id=slug,
                vuln_type=VulnerabilityType[type_name],
                exemplar=exemplars[0],
                source_listing=note,
                placeholder=note.startswith("placeholder:"),
            )
        )
    return SignatureSet(signatures=sigs, provenance="builtin")


def _annotation_above(source_lines: list[str], start_line: int, where: str) -> VulnerabilityType:
    i = start_line - 2
    while i >= 0 and not source_lines[i].strip():
        i -= 1
    m = _ANNOT_RE.fullmatch(source_lines[i].strip()) if i >= 0 else None
    if not m:
        raise MissingAnnotation(f"{where}: no {ANNOTATION_PREFIX}<TYPE> comment above line {start_line}")
    return parse_vuln_type(m.group(1))


def _generated_id(vuln_type: VulnerabilityType, exemplar: NormalizedFragment, taken: set) -> str:
    digest = hashlib.md5("\n".join(exemplar.lines).encode("utf-8")).hexdigest()[:8]
    base = f"{vuln_type.name.lower()}-{digest}"
    sig_id = base
    k = 1
    while sig_id in taken:
        k += 1
        sig_id = f"{base}-{k}"
    return sig_id


def load_signatures(path) -> SignatureSet:
    """Load a signature set from an annotated .sol file or a directory of them."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.sol"), key=lambda p: p.name)
        manifest_path = path / "manifest.json"
    else:
        files = [path]
        manifest_path = None
    meta_by_file: dict[tuple[str, str], dict] = {}
    provenance = f"loaded:{path}"
    if manifest_path and manifest_path.exists():
        text = manifest_path.read_text(encoding="utf-8")
        try:
            manifest = json.loads(text)
            provenance = manifest.get("provenance", provenance)
            for entry in manifest.get("signatures", []):
                meta_by_file[(entry["source_file"], entry.get("function", ""))] = entry
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise MalformedManifest(
                f"{manifest_path}: not a signature manifest ({type(exc).__name__}: {exc})"
            ) from None

    sigs = []
    taken: set[str] = set()
    for file in files:
        text = file.read_text(encoding="utf-8")
        source_lines = text.split("\n")
        for exemplar in _exemplars(file.name, text):
            vuln_type = _annotation_above(source_lines, exemplar.origin.start_line, str(file))
            entry = (
                meta_by_file.get((file.name, exemplar.origin.name))
                or meta_by_file.get((file.name, ""))
                or {}
            )
            sig_id = entry.get("sig_id") or _generated_id(vuln_type, exemplar, taken)
            taken.add(sig_id)
            sigs.append(
                VulnSignature(
                    sig_id=sig_id,
                    vuln_type=vuln_type,
                    exemplar=exemplar,
                    source_listing=entry.get("provenance", ""),
                    placeholder=bool(entry.get("placeholder", False)),
                )
            )
    if not sigs:
        log.warning("no annotated signatures under %s", path)
    return SignatureSet(signatures=sigs, provenance=provenance)


def save_signatures(sig_set: SignatureSet, out_dir) -> None:
    """Write one annotated .sol per signature plus a manifest.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for sig in sig_set:
        file_name = f"{sig.sig_id}.sol"
        body = "\n".join(sig.exemplar.lines)
        (out_dir / file_name).write_text(
            f"// {ANNOTATION_PREFIX}{sig.vuln_type.name}\n{body}\n", encoding="utf-8"
        )
        manifest.append(
            {
                "sig_id": sig.sig_id,
                "vuln_type": sig.vuln_type.name,
                "source_file": file_name,
                "function": sig.exemplar.origin.name,
                "provenance": sig.source_listing,
                "placeholder": sig.placeholder,
            }
        )
    payload = {"provenance": sig_set.provenance, "signatures": manifest}
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_labels_csv(path) -> dict[str, VulnerabilityType]:
    """Read a contract_id,vuln_type CSV; a header row is recognized and skipped."""
    import csv

    labels: dict[str, VulnerabilityType] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or not row[0].strip():
                continue
            if len(row) < 2:
                raise MalformedLabels(
                    f"{path}: row {reader.line_num} needs contract_id,vuln_type, got {row!r}"
                )
            cid, type_name = row[0].strip(), row[1].strip()
            if cid == "contract_id" and type_name == "vuln_type":
                continue
            labels[cid] = parse_vuln_type(type_name)
    return labels


def derive_signatures(
    vuln_corpus: Corpus,
    labels: dict[str, VulnerabilityType],
    cfg: CloneConfig,
    review_path=None,
) -> SignatureSet:
    """Derive one signature per label-pure clone class of a labeled corpus.

    The exemplar is the class member with the median normalized line count
    (lower median for even classes), ties broken by lexicographically
    smallest contract id. Mixed-label classes go to the review file, never
    to the returned set.
    """
    for contract in vuln_corpus:
        if contract.id not in labels:
            raise UnlabeledContract(f"no label for {contract.id}")

    none_by_ref: dict = {}
    mode_frags = []
    for contract in vuln_corpus:
        for none_nf in normalize_contract(contract, RenamingMode.NONE):
            none_by_ref[none_nf.origin] = none_nf
            mode_frags.append(in_mode(none_nf, cfg.mode))

    pairs = detect_pairs(mode_frags, cfg)
    classes = cluster_classes(pairs)
    if not classes:
        log.warning("derivation found no clone classes in corpus %s", vuln_corpus.label)

    sigs = []
    mixed = []
    taken: set[str] = set()
    for cls in classes:
        class_labels = sorted({labels[m.contract_id].name for m in cls.members})
        if len(class_labels) > 1:
            mixed.append(
                {
                    "class_id": cls.class_id,
                    "labels": class_labels,
                    "members": [m.uid for m in cls.members],
                }
            )
            continue
        vuln_type = VulnerabilityType[class_labels[0]]
        counts = sorted(len(none_by_ref[m].lines) for m in cls.members)
        median = counts[(len(counts) - 1) // 2]
        exemplar_ref = min(
            (m for m in cls.members if len(none_by_ref[m].lines) == median),
            key=lambda m: (m.contract_id, m.start_line),
        )
        exemplar = none_by_ref[exemplar_ref]
        sig_id = _generated_id(vuln_type, exemplar, taken)
        taken.add(sig_id)
        sigs.append(
            VulnSignature(
                sig_id=sig_id,
                vuln_type=vuln_type,
                exemplar=exemplar,
                source_listing=(
                    f"derived from class {cls.class_id}"
                    f" ({len(cls.members)} members, corpus {vuln_corpus.label})"
                ),
            )
        )
    if review_path is not None:
        Path(review_path).write_text(
            json.dumps({"mixed_classes": mixed}, indent=2, sort_keys=True) + "\n"
        )
    if mixed:
        log.warning("%d mixed-label classes routed to review", len(mixed))
    return SignatureSet(
        signatures=sigs,
        provenance=(
            f"derived:{vuln_corpus.label}:mode={cfg.mode.value}"
            f":max_difference={cfg.max_difference}"
        ),
    )
