"""Type rules for JSON input files and config blocks.

A reader is a function (value, where) -> value that checks one JSON type;
where names the value's place in its document, e.g. topology.n_qubits or
solution.frequencies_mhz['0'], and a value of the wrong type raises
ValueError naming it.  fields() reads an object against a spec mapping each
allowed key to its reader, so a document's schema is one dict.  Object keys
are strings unless mapping() is given a key reader, such as index_key for the
str(i) keys of qubit ids and edge indexes.  A bool is not a number, a string
is not a number, and nothing is truncated: the one conversion is number's, a
JSON integer read as a float.
"""
from __future__ import annotations

import json
import re
import sys


def _reader(expected: str, ok):
    """A reader that returns a value for which ok holds and rejects any other."""
    def read(value, where: str):
        if not ok(value):
            raise ValueError(f"{where} must be {expected}, got {json.dumps(value, default=str)}")
        return value
    return read


integer = _reader("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
bit = _reader("0 or 1", lambda v: type(v) is int and v in (0, 1))  # an orientation bit
boolean = _reader("true or false", lambda v: isinstance(v, bool))
text = _reader("a string", lambda v: isinstance(v, str))
obj = _reader("an object", lambda v: isinstance(v, dict))
# the comparison is exact for integers, so one beyond the float range fails it too
_finite = _reader("a finite number", lambda v: not isinstance(v, bool)
                  and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max)


def number(value, where: str) -> float:
    return float(_finite(value, where))


def mapping(read, key=lambda k, where: k):
    """A reader of an object whose every key is read by key and every value by read."""
    return lambda value, where: {key(k, where): read(item, f"{where}[{k!r}]")
                                 for k, item in obj(value, where).items()}


def index_key(key: str, where: str) -> int:
    """An object key written as str(i) for an index i >= 0, e.g. a qubit id."""
    if not re.fullmatch(r"0|[1-9][0-9]*", key):
        raise ValueError(f"{where} key {json.dumps(key)} must be an index like \"7\" "
                         "(no sign or leading zero)")
    return int(key)


def array(read, length: int | None = None):
    """A reader of an array (of exactly length items, if given) whose every item is read by read."""
    shaped = _reader("an array" if length is None else f"an array of {length} items",
                     lambda v: isinstance(v, list) and length in (None, len(v)))
    return lambda value, where: [read(item, f"{where}[{i}]")
                                 for i, item in enumerate(shaped(value, where))]


def fields(value, where: str, spec: dict, required=()) -> dict:
    """value's keys, each read by its reader in spec; an unknown or missing key is a ValueError."""
    for key in obj(value, where):
        if key not in spec:
            raise ValueError(f"unknown key {where}.{key}")
    for key in required:
        if key not in value:
            raise ValueError(f"missing key {where}.{key}")
    return {key: spec[key](item, f"{where}.{key}") for key, item in value.items()}
