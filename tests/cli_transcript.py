"""The command line's transcript: for each argv, the exit code, stdout,
stderr and the SHA-256 of every file the run writes.

``python tests/cli_transcript.py`` (from a checkout, with ``src`` on
``PYTHONPATH``) runs every case through ``cli.main`` and rewrites
``tests/data/cli_transcript.json``; ``tests/test_cli.py`` replays it, so
any change to a command's text, JSON, exit code or written files fails
tier-1.  Regenerate it only for an output change that is meant, and say
which entries changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.json"

# argparse wraps its help text at the terminal width, which it reads from
# COLUMNS, so every case runs at one fixed width
COLUMNS = "80"

D3 = "d=3; edges=(1,2,1);(2,3,1)"
D3_MARKING = "v1 e1-2w1#0 v2 e2-3w1#0 v3 s2w1#0 s3w1#0 s3w1#1"
D4 = "d=4; edges=(1,2,1);(2,3,1);(2,3,1);(3,4,2)"
SUITES = ["gw", "severi", "relative", "tangency", "appendix", "nodepoly", "counts", "all"]
COMMANDS = [
    "enumerate", "markings", "invariant", "nodepoly", "sequence",
    "bijection", "counts", "tropical", "render", "verify-tables",
]

CASES = [
    # every command line of the README
    ["enumerate", "--d", "4", "--genus", "0", "--filter", "odd"],
    ["markings", "--diagram", D3, "--list"],
    ["invariant", "gw", "--d", "5", "--g", "2"],
    ["invariant", "severi", "--d", "5", "--delta", "6"],
    ["invariant", "relative", "--d", "3", "--g", "0", "--lambda", "2", "--rho", "1"],
    ["invariant", "welschinger", "--d", "4"],
    ["invariant", "gw", "--table", "--max-d", "5"],
    ["nodepoly", "--delta", "3", "--evaluate", "d=7", "--aj"],
    ["sequence", "z", "--max-d", "16"],
    ["sequence", "ode-check", "--order", "10"],
    ["bijection", "to-tree", "--diagram", "d=3; edges=(1,2,1);(2,3,2)"],
    ["counts", "--d", "6"],
    ["tropical", "gallery", "--d", "3", "--g", "0", "--out", "gallery/"],
    ["tropical", "reconstruct", "--diagram", D3, "--marking", D3_MARKING, "--svg", "curve.svg"],
    ["render", "--diagram", D4, "--out", "d4.svg"],
    ["verify-tables", "--suite", "all", "--max-d", "5"],
    # every --help
    ["--help"],
    *[[command, "--help"] for command in COMMANDS],
    # each invariant kind in text and in JSON
    *[
        argv + extra
        for argv in [
            ["invariant", "gw", "--d", "4", "--g", "1"],
            ["invariant", "severi", "--d", "4", "--delta", "2"],
            ["invariant", "relative", "--d", "4", "--g", "0", "--lambda", "1,1", "--rho", "2"],
            ["invariant", "welschinger", "--d", "5"],
        ]
        for extra in ([], ["--format", "json"])
    ],
    # --table for gw and severi
    ["invariant", "gw", "--table"],
    ["invariant", "severi", "--table", "--max-d", "4"],
    # every verify-tables suite, plain and with --max-d 3
    *[
        ["verify-tables", "--suite", suite, *extra]
        for suite in SUITES
        for extra in ([], ["--max-d", "3"])
    ],
    # enumerate, markings, tropical reconstruct and render on small diagrams
    ["enumerate", "--d", "3", "--genus", "0", "--format", "jsonl"],
    ["enumerate", "--d", "4", "--cogenus", "2", "--connected"],
    ["markings", "--diagram", D4, "--format", "json"],
    ["markings", "--diagram", "d=3; edges=(1,2,1);(2,3,2)", "--lambda", "3", "--rho", "",
     "--list"],
    ["markings", "--diagram", "d=2; edges=(1,2,1)", "--lambda", "1", "--rho", "1", "--list"],
    ["tropical", "reconstruct", "--diagram", D3, "--marking", D3_MARKING],
    ["render", "--diagram", D3, "--marking", D3_MARKING, "--out", "marked.svg"],
    ["bijection", "to-diagram", "--tree", "d=3; edges=(1,2);(1,3)"],
    ["nodepoly", "--delta", "2", "--format", "json"],
    ["counts", "--d", "4", "--format", "json"],
    # the exit-1 domain errors
    ["invariant", "relative", "--d", "3", "--g", "0", "--lambda", "3", "--rho", "3"],
    ["invariant", "relative", "--d", "3", "--g", "0", "--lambda", "a", "--rho", "1"],
    *[
        ["enumerate", "--d", "3", "--genus", "0", "--filter", spec]
        for spec in ["contains=garbage", "contains=(1,2)", "has-weight=x"]
    ],
    *[
        ["markings", "--diagram", f"d=3; edges={edges}", "--list"]
        for edges in ["(1,2,1);(2,3,1", "1,2,1;2,3,1", "((1,2,1));(2,3,1)"]
    ],
    ["markings", "--diagram", "d=3; edges=(1,2,1)", "--lambda", "x", "--rho", "1"],
    ["sequence", "ode-check", "--order", "0"],
    ["tropical", "reconstruct", "--diagram", "d=2; edges=", "--marking", "v1 s1w1#0 v2 s2w1#0"],
    ["tropical", "reconstruct", "--diagram", D3, "--marking", "v1 v2 v3"],
    ["tropical", "gallery", "--d", "0", "--g", "0", "--out", "none/"],
    ["tropical", "gallery", "--d", "6", "--g", "0", "--out", "none/"],
    ["bijection", "to-tree", "--diagram", "d=3; edges=(1,2,1);(1,3,1);(2,3,1)"],
    ["bijection", "to-diagram", "--tree", "d=3; edges=(1,2);(2,1)"],
    ["render", "--diagram", "d=2; edges=(1,2,2)", "--out", "bad.svg"],
    # usage errors, from the front end and from argparse
    ["invariant", "gw", "--d", "10", "--g", "0"],
    ["nodepoly", "--delta", "9"],
    ["frobnicate"],
    ["enumerate", "--d", "3"],
]


def run(argv: list[str], main) -> dict:
    """One case through ``main`` in a fresh temporary directory, at the
    fixed help width: its exit code, stdout, stderr and {path: SHA-256} of
    every file it leaves there."""
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            files = {
                path.relative_to(tmp).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(tmp).rglob("*"))
                if path.is_file()
            }
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return {
        "argv": list(argv),
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "files": files,
    }


def record() -> dict:
    from floordiagrams.cli import main

    return {
        "python": "%d.%d" % sys.version_info[:2],
        "cases": [run(argv, main) for argv in CASES],
    }


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {TRANSCRIPT}")
