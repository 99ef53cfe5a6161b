"""SHA-256 pins of the marking-order sweep's rows.

``python tests/sweep_rows.py`` (from a checkout, with ``src`` on
``PYTHONPATH``) runs every sweep key in ``SWEEPS`` and rewrites
``tests/data/sweep_rows.json``: for each key, the SHA-256 of every row.
``tests/test_invariants.py`` recomputes them, so a kernel change that moves
any value of any row, or adds or drops a row, fails tier-1.  Rows are
compared as dicts: a digest reads a row's items in sorted order, so the
order a kernel builds them in does not matter.  Regenerate it only for a
change to the rows that is meant.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS = Path(__file__).parent / "data" / "sweep_rows.json"


def full_cap(d: int) -> tuple:
    """The lambda and rho cap of the degree-d sweep over all profiles."""
    return tuple(d // k for k in range(1, d + 1))


def sweep_keys(ordinary: int, odd: int, every: int) -> list:
    """The ``_SWEEPS`` keys of the ordinary (lambda empty, rho = 1^d) sweep
    at every degree up to ``ordinary``, the odd one up to ``odd`` and the
    all-profile one up to ``every``."""
    return [
        *[(d, (), (d,), False) for d in range(1, ordinary + 1)],
        *[(d, (), (d,), True) for d in range(1, odd + 1)],
        *[(d, full_cap(d), full_cap(d), False) for d in range(1, every + 1)],
    ]


# keys below full caps, which the forward kernel reads as it would a sweep
# capped at one query's own profile
CAPPED = [(6, (1,), (5,), False), (7, (0, 1), (5,), False), (8, (), (6, 1), False)]

SWEEPS = sweep_keys(9, 10, 7) + CAPPED


def digests(key: tuple) -> dict:
    """{"lambda rho": SHA-256 of the row's sorted items} for the sweep
    ``key``, computed afresh."""
    from floordiagrams import invariants

    invariants._relative_rows.cache_clear()
    rows = invariants._relative_rows(*key)
    return {
        f"{lam} {rho}": hashlib.sha256(repr(sorted(row.items())).encode()).hexdigest()
        for (lam, rho), row in sorted(rows.items())
    }


def record() -> list:
    return [{"key": repr(key), "rows": digests(key)} for key in SWEEPS]


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {PINS}")
