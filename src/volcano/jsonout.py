"""Indented JSON text of the reports, encoded mostly in C.

dumps(value) returns exactly json.dumps(value, indent=2, sort_keys=True).
With indent set, the standard library encodes in pure Python. Encoded JSON
never holds a raw newline inside a string, so the newline and indent that
json.dumps puts between two items can be the item separator of the C
encoder instead. dumps hands every container of scalars, and every list of
non-empty dicts of scalars, to the C encoder in one call, and walks in
Python only the containers above those. A dict with a key that is not a
str goes to json.dumps, whose text is re-indented to its depth.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

_SCALARS = (str, int, float, type(None))  # bool is an int


@lru_cache(maxsize=None)
def _encoder(depth: int):
    """C encoder whose item separator starts a new line indented to depth."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def _all(values, types) -> bool:
    """Whether every one of values is an instance of types."""
    return all(map(isinstance, values, repeat(types)))


def _flat_rows(rows) -> bool:
    """Whether every one of rows is a non-empty dict of str keys and scalar values."""
    return (
        _all(rows, dict)
        and all(rows)
        and _all(chain.from_iterable(rows), str)
        and _all(chain.from_iterable(map(dict.values, rows)), _SCALARS)
    )


def _open(text: str, depth: int) -> str:
    """C text of a flat container at depth, with its brackets on lines of their own."""
    return f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"


def _rows(rows, depth: int) -> str:
    """A list of flat rows at depth. In the C text, `},` then a separator
    then `{` can only join two rows: a scalar never ends in `}`, and a
    row's items begin with a key."""
    row, item = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    body = _encoder(depth + 2)(rows)[2:-2].replace("}," + item + "{", row + "}," + row + "{" + item)
    return f"[{row}{{{item}{body}{row}}}\n{'  ' * depth}]"


def _emit(value, depth: int, out) -> None:
    if isinstance(value, (list, tuple)):
        if not value:
            out("[]")
        elif _all(value, _SCALARS):
            out(_open(_encoder(depth + 1)(value), depth))
        elif _flat_rows(value):
            out(_rows(value, depth))
        else:
            inner = "\n" + "  " * (depth + 1)
            out("[")
            for k, v in enumerate(value):
                out("," + inner if k else inner)
                _emit(v, depth + 1, out)
            out("\n" + "  " * depth + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
        elif not _all(value, str):
            out(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth))
        elif _all(value.values(), _SCALARS):
            out(_open(_encoder(depth + 1)(value), depth))
        else:
            inner = "\n" + "  " * (depth + 1)
            out("{")
            for k, key in enumerate(sorted(value)):
                out(f"{',' if k else ''}{inner}{encode_basestring_ascii(key)}: ")
                _emit(value[key], depth + 1, out)
            out("\n" + "  " * depth + "}")
    else:
        out(_encoder(0)(value))


def dumps(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte."""
    parts: list[str] = []
    _emit(value, 0, parts.append)
    return "".join(parts)
