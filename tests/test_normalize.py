"""Pretty-printing and identifier renaming."""
from __future__ import annotations

import random
import re
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ATOMS, make_contract, norm, normalize_reference, printed_reference, wrap

from volcano.errors import EmptyFragment, ModeError
from volcano.extractor import FunctionFragment, extract_functions
from volcano.normalize import (
    NormalizationMemo,
    NormalizedFragment,
    RenamingMode,
    in_mode,
    pretty_print,
    rename_blind,
    rename_consistent,
    tokenize,
)

OPEN_INITIALIZER = wrap(
    "    function initialize() public {\n        new_owner = msg.sender; // anyone\n    }"
)

LATE_UPDATE_SEND = wrap(
    "\n".join(
        [
            "    function externalSend(uint amountToSend) {",
            "        if (balance >= amountToSend)",
            "            msg.sender.call.value(amountToSend)();",
            "        balance -= amountToSend; // update after call",
            "    }",
        ]
    )
)


def test_pretty_print_layout():
    nf = norm(OPEN_INITIALIZER)
    assert nf.mode is RenamingMode.NONE
    assert nf.lines == (
        "function initialize ( ) public",
        "{",
        "new_owner = msg.sender ;",
        "}",
    )
    assert len(nf.lines) == 4
    assert all(line is sys.intern(line) for line in nf.lines)


def test_blind_renaming():
    nf = norm(OPEN_INITIALIZER, RenamingMode.BLIND)
    assert nf.lines == (
        "function initialize ( ) public",
        "{",
        "X = msg.sender ;",
        "}",
    )


def test_consistent_renaming_numbers_by_first_occurrence():
    nf = norm(LATE_UPDATE_SEND, RenamingMode.CONSISTENT)
    assert nf.lines == (
        "function externalSend ( uint X1 )",
        "{",
        "if ( X2 >= X1 ) msg.sender.call.value ( X1 ) ( ) ;",
        "X2 -= X1 ;",
        "}",
    )


def test_guard_and_statement_share_one_line():
    # Line boundaries are ; { } only: an unbraced guard keeps its statement.
    nf = norm(LATE_UPDATE_SEND)
    assert nf.lines[2] == (
        "if ( balance >= amountToSend ) msg.sender.call.value ( amountToSend ) ( ) ;"
    )
    assert len(nf.lines) == 5


def test_for_header_semicolons_do_not_split():
    src = wrap(
        "    function drain() public {\n"
        "        for (uint i = 0; i < n; i++) {\n"
        "            addresses.send(msg.sender);\n"
        "        }\n"
        "    }"
    )
    nf = norm(src)
    assert nf.lines == (
        "function drain ( ) public",
        "{",
        "for ( uint i = 0 ; i < n ; i ++ )",
        "{",
        "addresses.send ( msg.sender ) ;",
        "}",
        "}",
    )


def test_dot_chains_render_unspaced():
    nf = norm(wrap("    function f() public { msg.sender.call.value(a)(); }"))
    assert "msg.sender.call.value ( a ) ( ) ;" in nf.lines


def test_builtins_keywords_and_literals_survive_renaming():
    src = wrap(
        "    function f(uint x) public {\n"
        '        require(msg.value >= 0x10 && tx.origin != address(0), "small");\n'
        "        balances.push(x + 2 ether);\n"
        "    }"
    )
    cons = norm(src, RenamingMode.CONSISTENT)
    # `origin` is not on the closed member-exemption list, unlike `value`.
    assert cons.lines[2] == 'require ( msg.value >= 0x10 && tx.X2 != address ( 0 ) , "small" ) ;'
    assert cons.lines[3] == "X3.push ( X1 + 2 ether ) ;"


def test_elementary_type_names_not_renamed():
    src = wrap(
        "    function f() public {\n"
        "        uint256 a = 1;\n"
        "        bytes32 b;\n"
        "        ufixed128x18 c;\n"
        "        mapping(address => uint) storage m = table;\n"
        "    }"
    )
    blind = norm(src, RenamingMode.BLIND)
    joined = "\n".join(blind.lines)
    for kept in ("uint256", "bytes32", "ufixed128x18", "mapping", "address", "uint"):
        assert kept in joined
    for erased in (" a ", " b ", " c ", " m ", "table"):
        assert erased not in joined


def test_declared_name_is_exempt_even_in_recursion():
    src = wrap("    function spin(uint n) public { if (n > 0) spin(n - 1); }")
    cons = norm(src, RenamingMode.CONSISTENT)
    assert cons.lines == (
        "function spin ( uint X1 ) public",
        "{",
        "if ( X1 > 0 ) spin ( X1 - 1 ) ;",
        "}",
    )


def test_consistent_placeholders_skip_the_declared_name():
    src = wrap("    function X1(uint a) public {\n        a = b + 1;\n    }")
    nf = norm(src, RenamingMode.CONSISTENT)
    assert nf.lines[0] == "function X1 ( uint X2 ) public"
    assert nf.lines[2] == "X2 = X3 + 1 ;"
    assert norm(wrap("\n".join(nf.lines)), RenamingMode.CONSISTENT).lines == nf.lines


def test_modifier_declared_name_exempt():
    src = wrap("    modifier only(address who) { require(who == owner); _; }")
    cons = norm(src, RenamingMode.CONSISTENT)
    assert cons.lines[0] == "modifier only ( address X1 )"
    assert cons.lines[2] == "require ( X1 == X2 ) ;"


def test_camelcase_delegatecall_is_renamable():
    # Only the exact lowercase member names are exempt.
    src = wrap("    function callOut(uint str) { msg.sender.delegateCall(str); }")
    cons = norm(src, RenamingMode.CONSISTENT)
    assert cons.lines[2] == "msg.sender.X2 ( X1 ) ;"
    lower = wrap("    function callOut(uint str) { msg.sender.delegatecall(str); }")
    assert norm(lower, RenamingMode.CONSISTENT).lines[2] == "msg.sender.delegatecall ( X1 ) ;"


def test_in_mode_and_mode_errors():
    nf = norm(OPEN_INITIALIZER)
    assert in_mode(nf, RenamingMode.NONE) is nf
    blind = in_mode(nf, RenamingMode.BLIND)
    assert blind.mode is RenamingMode.BLIND
    with pytest.raises(ModeError):
        rename_blind(blind)
    with pytest.raises(ModeError):
        rename_consistent(blind)
    with pytest.raises(ModeError):
        in_mode(blind, RenamingMode.NONE)


def test_empty_fragment_raises():
    ghost = FunctionFragment(contract_id="c", name="f", start_line=1, end_line=1, exact_text="/* nothing */")
    with pytest.raises(EmptyFragment):
        pretty_print(ghost)


def test_normalization_is_idempotent():
    for src in (OPEN_INITIALIZER, LATE_UPDATE_SEND):
        nf = norm(src)
        again = norm(wrap("\n".join(nf.lines)))
        assert again.lines == nf.lines


def _random_function(rng: random.Random, tag: str) -> tuple[str, list[str]]:
    """A small function plus the renamable identifiers it uses."""
    idents = [f"v{tag}{k}" for k in range(rng.randint(2, 5))]
    stmts = []
    for k in range(rng.randint(2, 6)):
        a, b = rng.choice(idents), rng.choice(idents)
        stmts.append(
            rng.choice(
                [
                    f"{a} = {b} + {rng.randint(1, 9)};",
                    f"{a} = msg.value;",
                    f"if ({a} >= {b}) {a} -= {b};",
                    f"require({a} > 0);",
                ]
            )
        )
    body = "\n".join(f"        {s}" for s in stmts)
    src = wrap(f"    function work{tag}(uint {idents[0]}) public {{\n{body}\n    }}")
    return src, idents


def test_bijective_renaming_invisible_to_consistent_mode():
    rng = random.Random(7)
    for trial in range(30):
        src, idents = _random_function(rng, f"a{trial}")
        fresh = [f"w{trial}q{k}" for k in range(len(idents))]
        rng.shuffle(fresh)
        table = dict(zip(idents, fresh))
        renamed = re.sub(r"[A-Za-z_$][A-Za-z0-9_$]*", lambda m: table.get(m.group(0), m.group(0)), src)
        left = norm(src, RenamingMode.CONSISTENT, cid="l")
        right = norm(renamed, RenamingMode.CONSISTENT, cid="r")
        assert left.lines == right.lines
        assert all(a is b for a, b in zip(left.lines, right.lines))  # interned


def test_identifier_merge_visible_to_consistent_invisible_to_blind():
    a = wrap("    function f() public {\n        x = 1;\n        y = 2;\n    }")
    b = wrap("    function f() public {\n        z = 1;\n        z = 2;\n    }")
    assert norm(a, RenamingMode.BLIND).lines == norm(b, RenamingMode.BLIND).lines
    assert norm(a, RenamingMode.CONSISTENT).lines != norm(b, RenamingMode.CONSISTENT).lines


def test_blind_is_per_line_erasure_of_consistent():
    rng = random.Random(11)
    for trial in range(20):
        src, _ = _random_function(rng, f"b{trial}")
        blind = norm(src, RenamingMode.BLIND)
        cons = norm(src, RenamingMode.CONSISTENT)
        erased = tuple(re.sub(r"\bX\d+\b", "X", line) for line in cons.lines)
        assert erased == blind.lines


def test_tokenize_operators_and_literals():
    assert tokenize("a+=b;") == ["a", "+=", "b", ";"]
    assert tokenize('x = "two words";') == ["x", "=", '"two words"', ";"]
    assert tokenize("y = 0xDeadBeef ** 2;") == ["y", "=", "0xDeadBeef", "**", "2", ";"]
    assert tokenize("p => q") == ["p", "=>", "q"]


_MODES = list(RenamingMode)
_IDENTS = st.sampled_from(["a", "b", "owner", "amount", "i", "f", "g", "sum", "X1", "msg", "value", "uint"])
# Separators that change a fragment's exact text but not its printed lines.
_GAPS = st.sampled_from([" ", "\n        ", "\n\n    ", " /* gap; { } */ ", " // note; }\n"])


@st.composite
def _statements(draw, depth: int = 2):
    a, b, c = draw(_IDENTS), draw(_IDENTS), draw(_IDENTS)
    simple = [
        f"{a} = {b} + {draw(st.integers(0, 99))};",
        f"{a} += {b}.{c}({a});",
        f"msg.sender.call.value({a})();",
        f'require({a} >= {b}, "no; {{ way }}");',
        f"if ({a} != {b}) {c} -= {a};",
        f"emit Moved({a}, {b});",
        "_;",
    ]
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(simple))
    inner = " ".join(draw(st.lists(_statements(depth - 1), max_size=3)))
    return draw(
        st.sampled_from(
            [
                f"if ({a}) {{ {inner} }} else {{ {b} = 0; }}",
                f"for (uint {a} = 0; {a} < {b}; {a}++) {{ {inner} }}",
                f"while ({a} > 0) {{ {inner} }}",
                f"unchecked {{ {inner} }}",
            ]
        )
    )


@st.composite
def _functions(draw) -> str:
    name, param = draw(_IDENTS), draw(_IDENTS)
    header = draw(
        st.sampled_from(
            [
                f"function {name}(uint {param}) public",
                f"function {name}(address {param}) external returns (bool)",
                f"modifier {name}(uint {param})",
                f"constructor(uint {param}) public",
                "function() payable",
            ]
        )
    )
    body = draw(st.lists(_statements(), min_size=1, max_size=4))
    gap = draw(_GAPS)
    return f"    {header} {{{gap}{gap.join(body)}\n    }}"


@st.composite
def _contracts(draw) -> list[tuple[str, str]]:
    """(id, source) pairs whose functions come from one small pool, so
    texts repeat across contracts and ids repeat with other texts."""
    pool = draw(st.lists(_functions(), min_size=1, max_size=4))
    picks = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["a.sol", "b.sol", "c.sol"]), picks.map(lambda fs: wrap("\n".join(fs)))),
            min_size=1,
            max_size=5,
        )
    )


# Every subset of the modes, in every order.
_DECLARED = st.permutations(_MODES).flatmap(lambda order: st.integers(0, len(order)).map(lambda k: order[:k]))


@given(_contracts(), _DECLARED)
def test_memoized_normalization_equals_unmemoized(contracts, declared):
    """One memo across contracts, built with any modes in any order, changes nothing."""
    memo = NormalizationMemo(declared)
    for cid, source in contracts:
        contract = make_contract(cid, source)
        want = [
            (f.name, f.start_line, f.end_line, *[in_mode(pretty_print(f), mode).lines for mode in declared])
            for f in extract_functions(contract)
        ]
        assert memo.records(contract) == want


def test_a_normalized_fragment_is_its_origin_mode_and_lines():
    assert [f.name for f in fields(NormalizedFragment)] == ["origin", "mode", "lines"]
    memo = NormalizationMemo([RenamingMode.CONSISTENT])
    got = []
    for cid, source in (("a.sol", OPEN_INITIALIZER), ("b.sol", LATE_UPDATE_SEND)):
        got += [record[3] for record in memo.records(make_contract(cid, source))]
    renamed = [lines for (lines,) in memo.table.values()]
    assert renamed
    for lines in renamed:
        assert isinstance(lines, tuple) and all(isinstance(line, str) for line in lines)
    assert sorted(renamed) == sorted(got)


@given(_functions(), st.sampled_from(_MODES))
def test_normalization_is_idempotent_over_generated_functions(function, mode):
    nf = norm(wrap(function), mode)
    again = norm(wrap("\n".join(nf.lines)), mode)
    assert again.lines == nf.lines


def _fragment(text: str, name: str) -> FunctionFragment:
    return FunctionFragment(contract_id="c", name=name, start_line=1, end_line=1, exact_text=text)


# Two lines whose text reads back differently from the tokens they were
# printed from: rendering turns the newline after an unterminated quote
# into a space, though the literal ends at that newline, and `1 . 0x1f`
# renders as `1.0x1f`, which reads back as `1.0` and the identifier `x1f`.
# Renaming maps the printed tokens, so the identifiers after the quote are
# renamed and the hex literal stays whole.
_TRAPS = {
    "unterminated quote": (
        's = "open\nowner + amount ;',
        {"none": 's = "open owner + amount ;', "blind": 'X = "open X + X ;',
         "consistent": 'X2 = "open X3 + X4 ;'},
    ),
    "dot before digit": (
        "v = 1 . 0x1f ;",
        {"none": "v = 1.0x1f ;", "blind": "X = 1.0x1f ;", "consistent": "X2 = 1.0x1f ;"},
    ),
}


@pytest.mark.parametrize("mode", _MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["X1", "<modifier:X1>"])
@pytest.mark.parametrize("trap", list(_TRAPS))
def test_a_line_that_reads_back_differently_renames_its_printed_tokens(trap, name, mode):
    text, want = _TRAPS[trap]
    fragment = _fragment(text, name)
    printed = pretty_print(fragment)
    assert in_mode(printed, mode).lines == (want[mode.value],)
    assert printed_reference(printed, mode).lines == (want[mode.value],)
    assert NormalizationMemo([mode]).lines(fragment) == ((want[mode.value],),)


@settings(max_examples=400)
@given(
    st.lists(ATOMS, min_size=1, max_size=20).map("".join),
    st.sampled_from(["X1", "<modifier:X1>", "f", "<fallback>"]),
    _DECLARED,
)
def test_memo_lines_equal_the_two_pass_reference(text, name, declared):
    """Every subset and order of declared modes, against the printed tokens renamed one by one."""
    fragment = _fragment(text, name)
    try:
        printed = pretty_print(fragment)
    except EmptyFragment:
        with pytest.raises(EmptyFragment):
            NormalizationMemo(declared).lines(fragment)
        return
    want = tuple(printed_reference(printed, mode).lines for mode in declared)
    assert NormalizationMemo(declared).lines(fragment) == want


@given(
    st.lists(st.lists(ATOMS, max_size=12).map("".join), min_size=1, max_size=4),
    st.sampled_from(["X1", "<modifier:X1>", "f", "<fallback>"]),
    st.sampled_from(_MODES),
)
def test_a_fragment_without_tokens_renames_its_lines_read_back(lines, name, mode):
    """A hand-built fragment carries no tokens: each line is tokenized again from its text."""
    nf = NormalizedFragment(_fragment("x", name).ref, RenamingMode.NONE, tuple(lines))
    assert nf.line_tokens is None
    assert in_mode(nf, mode) == normalize_reference(nf, mode)
