"""Builtin signature set, annotated persistence, derivation."""
from __future__ import annotations

import json
import logging
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ATOMS, make_corpus, wrap

from volcano.clone_engine import CloneConfig
from volcano.corpus import SourceContract
from volcano.errors import (
    MalformedLabels,
    MalformedManifest,
    MissingAnnotation,
    UnknownType,
    UnlabeledContract,
)
from volcano.normalize import NormalizationMemo, RenamingMode, in_mode
from volcano.signatures import (
    ANNOTATION_PREFIX,
    SignatureSet,
    VulnerabilityType,
    VulnSignature,
    _exemplars,
    builtin_signatures,
    derive_signatures,
    load_signatures,
    parse_vuln_type,
    read_labels_csv,
    save_signatures,
)

ALL_TYPE_NAMES = {
    "REENTRANCY",
    "DOS",
    "INTEGER_UO",
    "CALL_TO_UNKNOWN",
    "OUT_OF_GAS",
    "MISHANDLED_EXCEPTIONS",
    "MISMATCHED_TYPECASTING",
    "WEAK_MODIFIERS",
}


def test_vulnerability_type_enum_closed():
    assert {t.name for t in VulnerabilityType} == ALL_TYPE_NAMES
    assert parse_vuln_type("REENTRANCY") is VulnerabilityType.REENTRANCY
    assert parse_vuln_type("reentrancy") is VulnerabilityType.REENTRANCY
    with pytest.raises(UnknownType):
        parse_vuln_type("GREMLINS")


def test_builtin_set_shape():
    sigs = builtin_signatures()
    assert len(sigs) == 12
    assert sigs.provenance == "builtin"
    ids = [s.sig_id for s in sigs]
    assert len(set(ids)) == 12
    placeholders = [s for s in sigs if s.placeholder]
    assert [s.vuln_type for s in placeholders] == [VulnerabilityType.MISMATCHED_TYPECASTING]
    assert {s.vuln_type.name for s in sigs} == ALL_TYPE_NAMES
    for s in sigs:
        assert s.exemplar.mode is RenamingMode.NONE
        assert len(s.exemplar.lines) >= 4


def test_builtin_exemplar_line_counts_frozen():
    counts = {s.sig_id: len(s.exemplar.lines) for s in builtin_signatures()}
    assert counts == {
        "ctu-open-initializer": 4,
        "ctu-fallback-delegatecall": 4,
        "dos-open-suicide": 4,
        "dos-open-selfdestruct": 4,
        "dos-unchecked-loop-send": 8,
        "dos-require-loop-send": 8,
        "reentrancy-late-state-update": 5,
        "integer-unchecked-balance-math": 5,
        "misex-ignored-call-result": 4,
        "weak-open-initializer": 4,
        "gas-unchecked-send": 4,
        "typecast-narrowing-placeholder": 5,
    }


def test_duplicated_exemplar_bodies():
    by_id = {s.sig_id: s for s in builtin_signatures()}
    assert (
        by_id["reentrancy-late-state-update"].exemplar.lines
        == by_id["integer-unchecked-balance-math"].exemplar.lines
    )
    assert (
        by_id["ctu-open-initializer"].exemplar.lines
        == by_id["weak-open-initializer"].exemplar.lines
    )
    assert by_id["dos-open-suicide"].exemplar.lines != by_id["dos-open-selfdestruct"].exemplar.lines


def test_exemplar_in_modes():
    sig = next(s for s in builtin_signatures() if s.sig_id == "reentrancy-late-state-update")
    cons = in_mode(sig.exemplar, RenamingMode.CONSISTENT)
    assert cons.lines[2] == "if ( X2 >= X1 ) msg.sender.call.value ( X1 ) ( ) ;"
    blind = in_mode(sig.exemplar, RenamingMode.BLIND)
    assert blind.lines[2] == "if ( X >= X ) msg.sender.call.value ( X ) ( ) ;"
    assert in_mode(sig.exemplar, RenamingMode.NONE) is sig.exemplar


@given(
    st.lists(st.lists(ATOMS, max_size=12).map("".join), min_size=1, max_size=3),
    st.sampled_from(["function f(uint a) public", "modifier X1(uint a)", "function() payable", "constructor()"]),
)
def test_a_signature_file_normalizes_as_its_exemplars(bodies, header):
    """Scanned as a corpus contract, a signature file's fragments normalize
    in every mode exactly as its exemplars do."""
    text = wrap("\n".join(f"    // @volcano:vuln=DOS\n    {header} {{\n{body}\n    }}" for body in bodies))
    memo = NormalizationMemo(list(RenamingMode))
    records = memo.records(SourceContract("sig.sol", text))
    exemplars = _exemplars("sig.sol", text)
    assert [(e.origin.name, e.origin.start_line, e.origin.end_line) for e in exemplars] == [r[:3] for r in records]
    for column, mode in enumerate(memo.modes, start=3):
        assert [in_mode(e, mode).lines for e in exemplars] == [r[column] for r in records]


def test_signature_set_rejects_duplicate_ids():
    sig = builtin_signatures().signatures[0]
    with pytest.raises(ValueError):
        SignatureSet(signatures=[sig, sig])


def test_load_annotated_file(tmp_path):
    src = "\n".join(
        [
            f"// {ANNOTATION_PREFIX}REENTRANCY",
            "function drain(uint amount) public {",
            "    msg.sender.call.value(amount)();",
            "    total -= amount;",
            "}",
            "",
            f"//  {ANNOTATION_PREFIX}DOS",
            "",
            "function kill(address target) external {",
            "    selfdestruct(target);",
            "}",
            "",
        ]
    )
    path = tmp_path / "sigs.sol"
    path.write_text(src)
    sigs = load_signatures(path)
    assert [s.vuln_type.name for s in sigs] == ["REENTRANCY", "DOS"]
    assert all(re.fullmatch(r"[a-z_]+-[0-9a-f]{8}", s.sig_id) for s in sigs)
    assert sigs.signatures[0].exemplar.lines[0] == "function drain ( uint amount ) public"


def test_load_identical_exemplars_get_numbered_ids(tmp_path):
    kill = ["function kill(address target) external {", "    selfdestruct(target);", "}"]
    path = tmp_path / "sigs.sol"
    path.write_text("\n".join([f"// {ANNOTATION_PREFIX}DOS", *kill, f"// {ANNOTATION_PREFIX}DOS", *kill, ""]))
    first, second = (s.sig_id for s in load_signatures(path))
    assert re.fullmatch(r"dos-[0-9a-f]{8}", first)
    assert second == f"{first}-2"


def test_load_missing_annotation_raises(tmp_path):
    path = tmp_path / "bad.sol"
    path.write_text("function naked() public { a = 1; }\n")
    with pytest.raises(MissingAnnotation):
        load_signatures(path)


def test_load_unknown_type_raises(tmp_path):
    path = tmp_path / "bad.sol"
    path.write_text(f"// {ANNOTATION_PREFIX}GREMLINS\nfunction f() public {{ a = 1; }}\n")
    with pytest.raises(UnknownType):
        load_signatures(path)


def test_load_empty_directory_warns(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="volcano.signatures"):
        sigs = load_signatures(tmp_path)
    assert len(sigs) == 0
    assert any("no annotated signatures" in r.message for r in caplog.records)


def test_save_load_round_trip_extensional(tmp_path):
    before = builtin_signatures()
    save_signatures(before, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert len(list(tmp_path.glob("*.sol"))) == 12
    after = load_signatures(tmp_path)
    assert after.provenance == before.provenance
    as_tuple = lambda ss: sorted(
        (s.sig_id, s.vuln_type.name, s.exemplar.lines, s.placeholder) for s in ss
    )
    assert as_tuple(after) == as_tuple(before)


@pytest.mark.parametrize(
    "manifest, detail",
    [
        ("{ not json", "JSONDecodeError"),
        ('{"signatures": [{"sig_id": "x"}]}', "'source_file'"),
        ('["not", "an", "object"]', "AttributeError"),
        pytest.param('{"signatures": [{"sig_id": ["x"], "source_file": "x.sol"}]}', "sig_id must be a str",
                     id="sig_id"),
        pytest.param('{"signatures": [{"source_file": 1}]}', "source_file must be a str", id="source_file"),
        pytest.param('{"signatures": [{"source_file": "x.sol", "function": null}]}', "function must be a str",
                     id="function"),
        pytest.param('{"signatures": [{"source_file": "x.sol", "placeholder": "no"}]}',
                     "placeholder must be a bool", id="placeholder"),
        pytest.param('{"provenance": {"url": "x"}}', "provenance must be a str", id="provenance"),
        pytest.param("[" * 200_000 + "]" * 200_000, "RecursionError", id="deeply-nested"),
    ],
)
def test_load_malformed_manifest_names_the_file(tmp_path, manifest, detail):
    save_signatures(builtin_signatures(), tmp_path)
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(MalformedManifest) as err:
        load_signatures(tmp_path)
    assert str(tmp_path / "manifest.json") in str(err.value)
    assert detail in str(err.value)


def test_read_labels_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "contract_id,vuln_type\n"
        "a.sol,REENTRANCY\n"
        "b.sol, dos \n"
        "\n"
    )
    labels = read_labels_csv(path)
    assert labels == {
        "a.sol": VulnerabilityType.REENTRANCY,
        "b.sol": VulnerabilityType.DOS,
    }


def test_read_labels_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("\ufeffcontract_id,vuln_type\r\na.sol,DOS\r\n", encoding="utf-8")
    assert read_labels_csv(path) == {"a.sol": VulnerabilityType.DOS}


def test_read_labels_csv_rejects_one_column_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("contract_id,vuln_type\na.sol,DOS\nb.sol\n")
    with pytest.raises(MalformedLabels, match=r"labels\.csv: row 3"):
        read_labels_csv(path)


def test_read_labels_csv_rejects_an_oversized_field(tmp_path):
    """csv.Error (here the 131,072-character field limit) used to escape as is."""
    path = tmp_path / "labels.csv"
    path.write_text('contract_id,vuln_type\na.sol,DOS\nb.sol,"' + "x" * 131_073 + '"\n')
    with pytest.raises(MalformedLabels, match=r"labels\.csv: row 3: field larger than field limit"):
        read_labels_csv(path)


def test_read_labels_csv_rejects_a_contract_labeled_twice(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("contract_id,vuln_type\na.sol,DOS\nb.sol,DOS\na.sol, dos \na.sol,REENTRANCY\n")
    with pytest.raises(MalformedLabels, match=r"'a\.sol' is labeled DOS in row 2 and REENTRANCY in row 5"):
        read_labels_csv(path)
    # the same label again is no conflict
    path.write_text("a.sol,DOS\na.sol,DOS\n")
    assert read_labels_csv(path) == {"a.sol": VulnerabilityType.DOS}


def _sweep(extra: list[str], name="sweepFunds", amount="amount", pool="pool") -> str:
    body = "\n".join(
        [
            f"    function {name}(uint {amount}) public {{",
            f"        if ({pool} >= {amount}) msg.sender.call.value({amount})();",
            f"        {pool} -= {amount};",
            *[f"        {line}" for line in extra],
            "    }",
        ]
    )
    return wrap(body)


def _close(param: str) -> str:
    return wrap(f"    function close(address {param}) public {{ selfdestruct({param}); }}")


DERIVE_CFG = CloneConfig(mode=RenamingMode.CONSISTENT, max_difference=Fraction(30, 100), min_lines=3)


def test_derive_signatures_pure_classes(tmp_path):
    corpus = make_corpus(
        "labeled",
        {
            "r1": _sweep([]),
            "r2": _sweep(["pool -= 1;"]),
            "r3": _sweep(["pool -= 1;", "pool -= 2;"]),
            "d1": _close("target"),
            "d2": _close("sink"),
        },
    )
    labels = {
        "r1": VulnerabilityType.REENTRANCY,
        "r2": VulnerabilityType.REENTRANCY,
        "r3": VulnerabilityType.REENTRANCY,
        "d1": VulnerabilityType.DOS,
        "d2": VulnerabilityType.DOS,
    }
    review = tmp_path / "review.json"
    sigs = derive_signatures(corpus, labels, DERIVE_CFG, review_path=review)
    assert len(sigs) == 2
    by_type = {s.vuln_type.name: s for s in sigs}
    assert set(by_type) == {"REENTRANCY", "DOS"}
    # median line count of [5, 6, 7] is 6 -> r2's variant is the exemplar
    reen = by_type["REENTRANCY"]
    assert reen.exemplar.origin.contract_id == "r2"
    assert len(reen.exemplar.lines) == 6
    assert reen.exemplar.mode is RenamingMode.NONE
    assert re.fullmatch(r"reentrancy-[0-9a-f]{8}", reen.sig_id)
    assert "corpus labeled" in reen.source_listing
    # ties on the 4-line DOS class resolve to the smallest contract id
    assert by_type["DOS"].exemplar.origin.contract_id == "d1"
    assert sigs.provenance.startswith("derived:labeled:mode=consistent")
    assert json.loads(review.read_text()) == {"mixed_classes": []}


def test_derive_even_class_uses_lower_median():
    corpus = make_corpus(
        "even",
        {
            "a": _sweep([]),
            "b": _sweep(["pool -= 1;"]),
            "c": _sweep(["pool -= 1;", "pool -= 2;"]),
            "d": _sweep(["pool -= 1;", "pool -= 2;", "pool -= 3;"]),
        },
    )
    labels = {cid: VulnerabilityType.REENTRANCY for cid in "abcd"}
    (sig,) = derive_signatures(corpus, labels, DERIVE_CFG)
    assert len(sig.exemplar.lines) == 6
    assert sig.exemplar.origin.contract_id == "b"


def test_derive_unlabeled_contract_raises():
    corpus = make_corpus("u", {"a": _sweep([]), "b": _sweep([])})
    with pytest.raises(UnlabeledContract):
        derive_signatures(corpus, {"a": VulnerabilityType.REENTRANCY}, DERIVE_CFG)


def test_derive_mixed_class_goes_to_review(tmp_path, caplog):
    corpus = make_corpus("mixed", {"m1": _sweep([]), "m2": _sweep([], amount="val", pool="vault")})
    labels = {"m1": VulnerabilityType.REENTRANCY, "m2": VulnerabilityType.DOS}
    review = tmp_path / "review.json"
    with caplog.at_level(logging.WARNING, logger="volcano.signatures"):
        sigs = derive_signatures(corpus, labels, DERIVE_CFG, review_path=review)
    assert len(sigs) == 0
    doc = json.loads(review.read_text())
    assert len(doc["mixed_classes"]) == 1
    entry = doc["mixed_classes"][0]
    assert entry["labels"] == ["DOS", "REENTRANCY"]
    assert len(entry["members"]) == 2
    assert any("mixed-label" in r.message for r in caplog.records)


def test_derive_no_classes_warns(caplog):
    corpus = make_corpus(
        "lonely",
        {
            "a": wrap("    function f() public { a = 1; }"),
            "b": wrap("    function g() public { q = r + s + t + u; }"),
        },
    )
    labels = {"a": VulnerabilityType.DOS, "b": VulnerabilityType.REENTRANCY}
    with caplog.at_level(logging.WARNING, logger="volcano.signatures"):
        sigs = derive_signatures(corpus, labels, DERIVE_CFG)
    assert len(sigs) == 0
    assert any("no clone classes" in r.message for r in caplog.records)


def test_derived_signatures_round_trip(tmp_path):
    corpus = make_corpus("rt", {"d1": _close("target"), "d2": _close("sink")})
    labels = {"d1": VulnerabilityType.DOS, "d2": VulnerabilityType.DOS}
    sigs = derive_signatures(corpus, labels, DERIVE_CFG)
    save_signatures(sigs, tmp_path / "out")
    loaded = load_signatures(tmp_path / "out")
    assert [(s.sig_id, s.vuln_type, s.exemplar.lines) for s in loaded] == [
        (s.sig_id, s.vuln_type, s.exemplar.lines) for s in sigs
    ]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["provenance"] == sigs.provenance


def test_vuln_signature_is_frozen():
    sig = builtin_signatures().signatures[0]
    assert isinstance(sig, VulnSignature)
    with pytest.raises(AttributeError):
        sig.sig_id = "other"
