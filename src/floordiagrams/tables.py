"""Loader for the golden reference tables shipped with the package.

The JSON files freeze the published values the engine must reproduce;
`verify-tables` and the test suite both read them from here.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache

# the tables ship next to this file; reading them through os.path keeps
# importlib.resources, and the typing and pathlib modules it loads, out of
# a cold start
_DATA = os.path.join(os.path.dirname(__file__), "data")


@lru_cache(maxsize=None)
def _load(name: str) -> dict:
    with open(os.path.join(_DATA, name), encoding="utf-8") as f:
        return json.load(f)


def _by_degree(name: str) -> dict[tuple[int, int], int]:
    """A table's rows, one list per degree, as {(d, column): value}."""
    return {
        (int(d), col): value
        for d, row in _load(name)["rows"].items()
        for col, value in enumerate(row)
    }


def gw_table() -> dict[tuple[int, int], int]:
    return _by_degree("gw_table.json")


def severi_table() -> dict[tuple[int, int], int]:
    return _by_degree("severi_table.json")


def relative_table() -> dict:
    return _load("relative_table.json")


def max_tangency_table() -> list[tuple[int, int, int]]:
    return [tuple(row) for row in _load("max_tangency.json")["rows"]]


def appendix_rows() -> list[dict]:
    return _load("appendix_a.json")["rows"]


def template_rows() -> list[dict]:
    return _load("templates_table.json")["rows"]


def aj_reference(j_max: int = 8) -> list[tuple[Fraction, ...]]:
    rows = _load("aj_reference.json")["coefficients"][:j_max]
    return [tuple(Fraction(c) for c in row) for row in rows]
