"""Pretty-printing and identifier renaming."""
from __future__ import annotations

import random
import re
import sys

import pytest

from conftest import norm, single_fragment, wrap

from volcano.errors import EmptyFragment, ModeError
from volcano.extractor import FunctionFragment
from volcano.normalize import (
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
    assert len(nf) == 4
    assert all(line is sys.intern(line) for line in nf.lines)


def test_blind_renaming():
    nf = norm(OPEN_INITIALIZER, RenamingMode.BLIND)
    assert nf.lines == (
        "function initialize ( ) public",
        "{",
        "X = msg.sender ;",
        "}",
    )
    assert nf.rename_map is None


def test_consistent_renaming_numbers_by_first_occurrence():
    nf = norm(LATE_UPDATE_SEND, RenamingMode.CONSISTENT)
    assert nf.lines == (
        "function externalSend ( uint X1 )",
        "{",
        "if ( X2 >= X1 ) msg.sender.call.value ( X1 ) ( ) ;",
        "X2 -= X1 ;",
        "}",
    )
    assert nf.rename_map == (("amountToSend", "X1"), ("balance", "X2"))


def test_guard_and_statement_share_one_line():
    # Line boundaries are ; { } only: an unbraced guard keeps its statement.
    nf = norm(LATE_UPDATE_SEND)
    assert nf.lines[2] == (
        "if ( balance >= amountToSend ) msg.sender.call.value ( amountToSend ) ( ) ;"
    )
    assert len(nf) == 5


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


def test_modifier_declared_name_exempt():
    src = wrap("    modifier only(address who) { require(who == owner); _; }")
    cons = norm(src, RenamingMode.CONSISTENT)
    assert cons.lines[0] == "modifier only ( address X1 )"
    assert "only" not in dict(cons.rename_map)


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


def test_empty_fragment_raises():
    ghost = FunctionFragment(
        contract_id="c", name="f", start_line=1, end_line=1,
        raw_lines=("",), exact_text="/* nothing */",
    )
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
