"""Comment/string masking and function extraction."""
from __future__ import annotations

import contextlib
import logging
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_SOURCES,
    extract_functions_reference,
    make_contract,
    mask_reference,
    single_fragment,
    wrap,
)
from test_acceptance import BENIGN_SOURCES

import volcano.extractor as extractor_mod
from volcano.corpus import SourceContract
from volcano.extractor import (
    FragmentRef,
    _mask,
    extract_functions,
    mask_comments_and_strings,
    strip_comments,
)
from volcano.signatures import _BUILTIN


def test_masking_preserves_geometry():
    src = 'uint a = 1; // trailing note\n/* block\n comment */ string s = "payload";\n'
    masked = mask_comments_and_strings(src)
    assert len(masked) == len(src)
    assert masked.count("\n") == src.count("\n")
    for banned in ("trailing", "block", "comment", "payload"):
        assert banned not in masked
    assert "uint a = 1;" in masked
    # string delimiters survive, their payload does not
    assert '"       "' in masked


def test_strip_comments_keeps_strings():
    src = 'string s = "// not a comment"; // real comment\n'
    stripped = strip_comments(src)
    assert '"// not a comment"' in stripped
    assert "real comment" not in stripped


def test_comment_markers_inside_strings_ignored():
    src = 'string s = "/* still data */"; uint x = 2;\n'
    assert "uint x = 2;" in mask_comments_and_strings(src)


def test_line_comment_inside_block_comment():
    src = "/* outer // inner\nstill masked */ uint k;\n"
    masked = mask_comments_and_strings(src)
    assert "still" not in masked
    assert "uint k;" in masked


def test_unterminated_block_comment_warns(caplog):
    src = "uint a;\n/* never closed\nuint b;\n"
    with caplog.at_level(logging.WARNING, logger="volcano.extractor"):
        masked = mask_comments_and_strings(src)
    assert "uint a;" in masked
    assert "uint b;" not in masked
    assert any("unterminated" in r.message for r in caplog.records)


def test_unterminated_string_warns(caplog):
    src = 'uint a;\nstring s = "runs off the end;\n'
    with caplog.at_level(logging.WARNING, logger="volcano.extractor"):
        masked = mask_comments_and_strings(src)
    assert "uint a;" in masked
    assert "runs off" not in masked
    assert any("unterminated" in r.message for r in caplog.records)


def test_extract_simple_function():
    src = wrap("    address new_owner;\n    function initialize() public {\n        new_owner = msg.sender;\n    }")
    contract = make_contract("w", src)
    frags = extract_functions(contract)
    assert [f.name for f in frags] == ["initialize"]
    frag = frags[0]
    assert (frag.start_line, frag.end_line) == (4, 6)
    assert frag.exact_text.startswith("function initialize()")
    assert frag.exact_text.endswith("}")
    assert frag.ref == FragmentRef("w", 4, 6, "initialize")
    assert frag.ref.uid == "w:initialize:4-6"


def test_extract_all_declaration_forms():
    src = wrap(
        "\n".join(
            [
                "    function named(uint a) public returns (uint) { return a; }",
                "    constructor(address o) public { owner = o; }",
                "    modifier onlyOwner() { require(msg.sender == owner); _; }",
                "    function () payable { balance += msg.value; }",
                "    fallback() external payable { balance += msg.value; }",
                "    receive() external payable { balance += msg.value; }",
            ]
        )
    )
    names = [f.name for f in extract_functions(make_contract("c", src))]
    assert names == [
        "named",
        "<constructor>",
        "<modifier:onlyOwner>",
        "<fallback>",
        "<fallback>",
        "<receive>",
    ]


def test_bodiless_declarations_are_skipped():
    src = wrap(
        "\n".join(
            [
                "    function abstractOne(uint a) external;",
                "    function abstractTwo() public returns (bool);",
                "    function (uint) external returns (uint) handler;",  # function-typed variable
                "    function real() public { done = true; }",
            ]
        )
    )
    names = [f.name for f in extract_functions(make_contract("c", src))]
    assert names == ["real"]


def test_a_header_that_meets_a_declaration_has_no_body():
    """The header walk of f meets modifier m at depth 0: f is bodiless, m and g are not."""
    src = wrap("    function f() public\n    modifier m() { _; }\n    function g() public { a = 1; }")
    assert [f.name for f in extract_functions(make_contract("c", src))] == ["<modifier:m>", "g"]


def test_nested_definitions_extract_separately():
    src = wrap(
        "\n".join(
            [
                "    function outer(uint base) public returns (uint result) {",
                "        assembly {",
                "            function power(b, e) -> r {",
                "                r := b",
                "            }",
                "            result := power(base, 2)",
                "        }",
                "    }",
            ]
        )
    )
    frags = extract_functions(make_contract("c", src))
    names = [f.name for f in frags]
    assert names == ["outer", "power"]
    outer, inner = frags
    assert outer.start_line < inner.start_line
    assert outer.end_line > inner.end_line


def test_unbalanced_braces_warn_and_skip(caplog):
    src = wrap("    function fine() public { a = 1; }\n    function broken() public { if (a) {")
    with caplog.at_level(logging.WARNING, logger="volcano.extractor"):
        frags = extract_functions(make_contract("c", src))
    assert [f.name for f in frags] == ["fine"]
    assert any("braces never close" in r.message for r in caplog.records)


def test_declaration_keywords_in_comments_and_strings_ignored():
    src = wrap(
        "\n".join(
            [
                "    // function fake() public {",
                '    string hint = "function nope() {}";',
                "    function real() public { a = 1; }",
            ]
        )
    )
    names = [f.name for f in extract_functions(make_contract("c", src))]
    assert names == ["real"]


def test_minified_source_one_line():
    src = "contract C { function a() public { x = 1; } function b() public { y = 2; } }"
    frags = extract_functions(make_contract("c", src))
    assert [f.name for f in frags] == ["a", "b"]
    assert all(f.start_line == f.end_line == 1 for f in frags)
    assert frags[0].exact_text == "function a() public { x = 1; }"
    assert frags[1].exact_text == "function b() public { y = 2; }"


def test_extraction_count_matches_construction():
    rng = random.Random(20260814)
    for trial in range(25):
        parts = []
        expected = []
        n = rng.randint(1, 12)
        for k in range(n):
            name = f"fn{trial}_{k}"
            stmts = "".join(
                f" v{j} = {rng.randint(0, 99)};" for j in range(rng.randint(1, 4))
            )
            parts.append(f"    function {name}() public {{{stmts} }}")
            expected.append(name)
            if rng.random() < 0.3:
                parts.append(f"    // function ghost{k}() {{ }}")
            if rng.random() < 0.2:
                parts.append(f"    uint counter{k};")
        src = wrap("\n".join(parts))
        names = [f.name for f in extract_functions(make_contract(f"t{trial}", src))]
        assert names == expected


def test_code_round_trip_is_exact_slice():
    body = "    function pay(address to) public {\n        to.send(1); // fee\n    }"
    src = wrap(body)
    frag = single_fragment(src)
    start = src.index("function pay")
    end = src.index("}", src.index("// fee")) + 1
    assert frag.exact_text == src[start:end]


# Arbitrary text, text glued from the pieces the scanner reacts to, and
# nested definitions whose names and lines often clash. The pieces cover
# keywords glued to digits and words ("9function" holds a `function`
# token, the other glued forms none), headers that do and do not open a
# definition, a '}' before any '{', and unterminated strings and comments.
_PIECES = [
    "function", "modifier", "constructor", "fallback", "receive", "assembly",
    " f", " g", "(", ")", "{", "}", ";", " ", "\n", "//", "/*", "*/", '"', "'", "\\", "x",
    "9function", "function9", "xfunction", "0xfunction", "$function",
    "fallback (", "receive;", "modifier m", "} {", '"open', "/* open", "'open\n",
    ") returns (", "((", "))", "; {",
]
_HEADERS = [
    "function f()", "function g()", "modifier f", "constructor()", "fallback()",
    "9function f()", "x9function f()", "function9 f()", "$function f()", "fallback ()",
]


def _definition(parts):
    header, body, sep = parts
    return f"{header} {{{sep}{sep.join(body)}{sep}}}"


_nested = st.recursive(
    st.sampled_from(["", "x;", "// c\n", '"s"', "{ }", "}"]),
    lambda inner: st.tuples(
        st.sampled_from(_HEADERS), st.lists(inner, max_size=3), st.sampled_from([" ", "\n"])
    ).map(_definition),
    max_leaves=12,
)
_sources = st.one_of(
    st.text(), st.lists(st.sampled_from(_PIECES), max_size=60).map("".join), _nested
)


@given(_sources)
def test_extraction_is_total_and_keeps_one_fragment_per_ref(text):
    refs = [f.ref for f in extract_functions(SourceContract("c", text))]
    assert len(refs) == len(set(refs))


@given(_sources)
def test_masking_keeps_length_and_newline_offsets(text):
    masked = mask_comments_and_strings(text)
    assert len(masked) == len(text)
    assert [i for i, ch in enumerate(masked) if ch == "\n"] == [i for i, ch in enumerate(text) if ch == "\n"]


# Text made of what the masker reacts to: slashes that do and do not open
# comments, both quotes, escapes (a backslash before a quote, a newline or
# the end of the text), newlines and unterminated regions of every kind.
_HOSTILE = st.one_of(
    st.text(alphabet="/*\"'\\\n x;"),
    st.lists(
        st.sampled_from(["/", "*", "//", "/*", "*/", '"', "'", "\\", "\\\"", "\\'", "\\\n", "\n", "x", " /"]),
        max_size=40,
    ).map("".join),
    _sources,
)


@settings(max_examples=1000)
@given(_HOSTILE, st.booleans())
@example('a / b "c\\"d" \'e\n/* f', True)
@example("x // y\n'open", False)
@example('"""', True)  # a region's end is the next region's start
@example("'\"'\"x\"//'", True)
def test_masking_equals_regex_scan_reference(text, mask_strings):
    warnings: list[str] = []
    masked = _mask(text, mask_strings, warnings)
    assert (masked, warnings) == mask_reference(text, mask_strings)


@contextlib.contextmanager
def _extractor_warnings():
    """Collect the messages the extractor's logger emits in the block."""
    messages: list[str] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("volcano.extractor")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def _fragments_and_warnings(extract, contract):
    with _extractor_warnings() as messages:
        frags = extract(contract)
    return [(f.name, f.start_line, f.end_line, f.exact_text) for f in frags], messages


def _assert_matches_reference(contract):
    got = _fragments_and_warnings(extract_functions, contract)
    assert got == _fragments_and_warnings(extract_functions_reference, contract)


@given(_sources)
@example("9function f() { } x9function g() { } 0xfunction h() { }")
@example("$function f() { } function9 g() { } } function k() { }")
# Headers around the flat-parentheses shortcut: a ';' at and below depth
# 0, an unbalanced ')', nested and repeated parameter lists.
@example("function f(); { } function g(x; y) { }")
@example("function f()) { } fallback (} { } modifier m(a, (b)) { }")
@example("function f(uint a) returns (uint) { } function g((x) { }")
# Off the shortcut the walk steps over each parameter list whole: what
# it holds (a keyword, '{', ';') never counts, and one that never closes
# ends the header.
@example("function f(function g() { }) public { } function h(a { } function k() { }")
@example("function f(x; {y}) m(z) { } function g(( ) { } modifier n() { }")
def test_extraction_equals_token_walk_reference(text):
    _assert_matches_reference(SourceContract("c", text))


@pytest.mark.parametrize(
    "text",
    ["function f(" * 8_000, "contract C { function f( " * 4_000],
    ids=["headers", "headers-in-a-contract"],
)
def test_a_parameter_list_that_never_closes_is_read_in_linear_time(text):
    started = time.perf_counter()
    assert extract_functions(SourceContract("c", text)) == []
    assert time.perf_counter() - started < 2.0


def test_parenthesis_pairs_are_built_once_and_only_off_the_flat_path(monkeypatch):
    built = []
    real = extractor_mod._pairs
    monkeypatch.setattr(
        extractor_mod, "_pairs", lambda canvas, left, right: built.append(left) or real(canvas, left, right)
    )
    flat = wrap("    function f(uint a) public returns (uint) { }\n    function g() { }")
    assert len(extract_functions(SourceContract("flat", flat))) == 2
    assert built == ["{"]
    built.clear()
    nested = wrap("    function f(g(x)) { }\n    function h(k(y)) { }\n    modifier m(n(z)) { _; }")
    assert len(extract_functions(SourceContract("nested", nested))) == 3
    assert built == ["{", "("]


# Every contract source the suite writes as a .sol file: the golden and
# benign corpora and the shipped signatures' exemplars.
_FIXTURE_SOURCES = {
    **GOLDEN_SOURCES,
    **{f"benign/{cid}": text for cid, text in BENIGN_SOURCES.items()},
    **{f"builtin/{slug}.sol": text for slug, _, _, text in _BUILTIN},
}


@pytest.mark.parametrize("cid", sorted(_FIXTURE_SOURCES))
def test_extraction_equals_reference_on_fixture_sources(cid):
    _assert_matches_reference(SourceContract(cid, _FIXTURE_SOURCES[cid]))
