"""The JSON type of each field of every input file, declared once per format as a
table of field -> JSON type, and the one checker that every loader calls before
its own value rules. A field is checked as a column: one set of types over all records.
"""
from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional


class JsonType(NamedTuple):
    name: str  # in errors: "an integer"
    types: frozenset  # the Python types json.loads gives such a value
    items: Optional[frozenset] = None  # for a list, the types of its items

    def holds(self, column: list) -> bool:
        return set(map(type, column)) <= self.types and (
            self.items is None or set(map(type, chain.from_iterable(column))) <= self.items
        )


INTEGER = JsonType("an integer", frozenset({int}))  # type(True) is bool, so a boolean is not an integer
INTEGER_OR_NULL = JsonType("an integer or null", frozenset({int, type(None)}))
NUMBER = JsonType("a number", frozenset({int, float}))
BOOLEAN = JsonType("a boolean", frozenset({bool}))
STRING = JsonType("a string", frozenset({str}))
OBJECT = JsonType("an object", frozenset({dict}))
STRINGS = JsonType("a list of strings", frozenset({list}), frozenset({str}))
NUMBERS = JsonType("a list of numbers", frozenset({list}), frozenset({int, float}))
OBJECTS = JsonType("a list of objects", frozenset({list}), frozenset({dict}))
ANY = JsonType("any JSON value", frozenset({dict, list, str, int, float, bool, type(None)}))

# pool.json; each of its fragments is a POOL_FRAGMENT
POOL = {"n": INTEGER, "top_k": INTEGER_OR_NULL, "source_count": INTEGER, "fragments": OBJECTS}
POOL_FRAGMENT = {"words": STRINGS, "f": NUMBER}
# decoys.json maps each path to a DECOY_ENTRY, whose kind must name a DecoyKind;
# notes.json maps each path to a STRING
DECOY_ENTRY = {"content_digest": STRING, "deployed_at": STRING, "kind": ANY}
# a scenario spec by its kind; only "kind" is required, and "tree" is an object of TREE's fields
SPEC = {"kind": STRING, "seed": INTEGER, "files": INTEGER, "decoy_paths": STRINGS}
RANSOMWARE_SPEC = {**SPEC, "fps": NUMBER, "note_every_k_dirs": INTEGER, "avoid_decoys": BOOLEAN}
BENIGN_SPEC = {**SPEC, "touch_decoy": BOOLEAN}
TREE = {"depth": INTEGER, "fanout": INTEGER, "files": INTEGER, "extensions": STRINGS, "root": STRING}
CORPUS_META = {"dims": INTEGER, "hash_seed": INTEGER, "windows": OBJECTS}  # a corpus directory's meta.json
FEATURES = {"vector": NUMBERS}  # the file `features extract` writes, as `predict` reads it


def check(values, jtype: JsonType, what: str, name: Optional[str] = None, error=ValueError) -> list:
    """``values`` as a list if each is of ``jtype``, else ``error`` in one line that begins with
    ``what``. A dict is a map: its values are checked, and the error names a wrong one's key."""
    column = list(values.values() if isinstance(values, dict) else values)
    if not jtype.holds(column):
        at = next(i for i, value in enumerate(column) if not jtype.holds([value]))
        name = list(values)[at] if isinstance(values, dict) else name
        shown = json.dumps(column[at])
        field = "" if name is None else f"{json.dumps(name)} has the wrong type: "
        raise error(f"{what}: {field}expected {jtype.name}, got {shown if len(shown) <= 60 else shown[:57] + '...'}")
    return column


def columns(records, table: dict, what: str, error=ValueError) -> list[list]:
    """The column of each field of ``table`` over ``records`` (a list, or a map as in ``check``),
    which must all be objects that give every field, each of its JSON type."""
    records = check(records, OBJECT, what, error=error)
    try:
        return [check(list(map(itemgetter(name), records)), jtype, what, name, error) for name, jtype in table.items()]
    except KeyError as missing:
        raise error(f"{what}: {json.dumps(missing.args[0])} is missing") from None
