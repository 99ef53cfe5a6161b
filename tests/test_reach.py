"""Every production function earns its place: replaying the command line's
transcript runs it, or ``ALLOWED`` below names it with a reason.

The replay runs in a fresh process under a ``sys.settrace`` hook set before
the package import, so a function that runs only at import, such as a
decorator, counts as reached.  A function
is one ``def`` in ``src/floordiagrams/`` outside ``oracles.py``, matched to
the code objects that ran by its first line (its first decorator's, when it
has one).  The package's ``__all__`` API is allowed as a whole, methods of
its classes included.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import floordiagrams

PACKAGE = Path(floordiagrams.__file__).parent

# module.qualname -> why no command reaches it; an entry covers the
# functions nested in it, and must name a function that stays unreached
ALLOWED = {
    "core.Value.__repr__": "the value classes' repr, for the library and for debugging",
    "core.Value.__setattr__": "refuses assignment; no production code assigns a field",
    "core.Value.__delattr__": "refuses deletion; no production code deletes a field",
    "core.Value.__reduce__": "pickling of value classes, for library users",
    "invariants._weighted_marking_sum": "the diagram-by-diagram oracle the sweep is tested against",
    "markings.count_orderings": "perfbench/tracing.py wraps it to time the gap DP",
    "nodepoly.discrete_sum": "perfbench/tracing.py wraps it",
    "nodepoly.enumerate_templates": "perfbench/tracing.py wraps it; the oracles read it",
    "nodepoly.extension_polynomial": "perfbench/tracing.py wraps it; the oracles read it",
    "nodepoly._extension_newton": "extension_polynomial's values, which the oracles read too",
    "nodepoly.Template": "the templates enumerate_templates builds",
}

PROBE = """
import json, sys
reached = set()
def trace(frame, event, arg):
    reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.settrace(trace)
from floordiagrams.cli import main
import cli_transcript
for case in json.loads(cli_transcript.TRANSCRIPT.read_text())["cases"]:
    cli_transcript.run(case["argv"], main)
sys.settrace(None)
print(json.dumps(sorted(reached)))
"""


def defined_functions() -> dict:
    """(module, first line) -> module.qualname of every production def."""
    out = {}

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[module, first] = f"{module}.{prefix}{child.name}"
                walk(module, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(module, child, f"{prefix}{child.name}.")
            else:
                walk(module, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "oracles":
            walk(path.stem, ast.parse(path.read_text()), "")
    return out


def covered(name: str, entries) -> bool:
    return any(name == entry or name.startswith(entry + ".") for entry in entries)


def test_the_transcript_reaches_every_production_function():
    src, tests = PACKAGE.parent, Path(__file__).parent
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])},
    )
    assert proc.returncode == 0, proc.stderr
    reached = {
        (Path(path).stem, line)
        for path, line in json.loads(proc.stdout)
        if Path(path).parent == PACKAGE
    }
    unreached = [name for key, name in defined_functions().items() if key not in reached]
    api = [
        f"{getattr(floordiagrams, name).__module__.rsplit('.', 1)[1]}.{name}"
        for name in floordiagrams.__all__
    ]
    assert [name for name in unreached if not covered(name, [*api, *ALLOWED])] == []
    assert [e for e in ALLOWED if not any(covered(name, [e]) for name in unreached)] == []
