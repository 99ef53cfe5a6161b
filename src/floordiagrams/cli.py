"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid mathematical input or a
failed table verification), 2 usage error.  A reader that closes stdout
early, as ``| head`` does, ends the run quietly with exit 1, as Python's
SIGPIPE recipe does: nothing on stderr and no traceback.  JSON output
serializes all counts as decimal strings so arbitrary-precision values
survive parsers that assume doubles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import invariants, nodepoly, sequences, tables, tropical
from .core import DiagramError, FloorDiagram, Partition
from .enumeration import DiagramQuery, enumerate_diagrams
from .markings import check_listing_size, count_markings, count_relative_markings, list_markings
from .render import render_svg
from .sequences import LabeledTree

# the largest cogenus measured (N_8: 1.0-1.3 s, 28 MB in a fresh process on a
# 2-CPU x86-64 host; the template-group sweep grows about 3x per cogenus);
# larger values wait for a Caporaso-Harris check past the threshold and are
# refused up front
NODEPOLY_MAX_DELTA = 8

# the largest degree measured for gw, severi, relative and welschinger (the
# sweep over every tangency profile at d = 9, which relative runs: 1.1 s,
# 27 MB in a fresh process on a 2-CPU x86-64 host, about 3x per degree;
# gw(9, 0) and severi(9, 10): 0.10-0.13 s, 17 MB; welschinger(9): 0.07-0.10 s,
# 16 MB); larger degrees are refused before any sweep
INVARIANT_MAX_D = 9

# the largest degree measured for counts (closed_counts(8) holds all 262,144
# genus-0 diagrams: 3.8-4.2 s, 195 MiB on a 2-CPU x86-64 host); d = 9 has 9^7
# of them, so larger degrees are refused before any diagram is built
COUNTS_MAX_D = 8

# the largest degree measured for enumerate (degree 7 at its worst genus, 4,
# and cogenus, 11: 2.7-2.9 s and 2.5-2.7 s, 38 MiB each, on a 2-CPU x86-64
# host; degree 8 takes 4.0 s, 45 MiB at genus 0 and 140 s, 1.3 GiB at genus
# 7); larger degrees are refused before any edge set is built
ENUMERATE_MAX_D = 7

# the largest sizes measured for sequence (z --max-d 60: 0.7 s, ode-check
# --order 60: 0.8 s, both 16 MB on a 2-CPU x86-64 host; z up to 90 takes
# about 2 s and ode-check at 80 about 1.6 s); larger values are refused
# before any term is computed
SEQUENCE_MAX_D = 60
ODE_MAX_ORDER = 60

# the largest degree measured for markings and tropical reconstruct --diagram
# (the slowest degree-20 diagrams hill climbs found count their markings in
# 0.04-0.07 s, 16 MB on a 2-CPU x86-64 host, the edgeless one at lambda = 1^20
# in 1 ms and at lambda = rho = 1^10 in 5 ms; reconstruct took at most 0.2 s;
# span-12 edges at d = 24 take 0.3 s); a larger degree is refused as
# --diagram is read, before any marking is counted, listed or drawn
DIAGRAM_MAX_D = 20

# the largest degree measured for render without --marking (a degree-1000
# chain: 0.12 s, 17 MB and a 194 KB SVG on a 2-CPU x86-64 host; 9,870 unit
# edges, about as many as one 128 KiB argument holds, 0.19 s, 23 MB, 1.1 MB;
# d = 10^6 wrote 91 MB at a 335 MB peak); a larger degree is refused as
# --diagram is read, before anything is drawn
RENDER_MAX_D = 1000


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}" if key != "value" else value)


# -- subcommand handlers ------------------------------------------------------


def cmd_enumerate(args) -> int:
    _bound("--d", args.d, 1, ENUMERATE_MAX_D)
    target = args.genus if args.genus is not None else args.cogenus
    _require(target >= 0, "genus / cogenus must be nonnegative")
    query = DiagramQuery(
        d=args.d,
        genus=args.genus,
        cogenus=args.cogenus,
        connected=True if args.connected else None,
        filter=args.filter,
    )
    for diag in enumerate_diagrams(query):
        print(diag.to_json() if args.format == "jsonl" else diag.text())
    return 0


def _diagram_arg(text: str, max_d: int = DIAGRAM_MAX_D) -> FloorDiagram:
    diag = FloorDiagram.from_text(text)
    _bound("--diagram degree", diag.d, high=max_d)
    return diag


def cmd_markings(args) -> int:
    diag = _diagram_arg(args.diagram)
    if args.lam is None and args.rho is None:
        lam, rho = Partition(()), Partition.ones(diag.d)
    else:
        lam = Partition.parse(args.lam or "")
        rho = Partition.parse(args.rho or "")
    nu = count_relative_markings(diag, lam, rho)
    if args.list:
        for order in list_markings(diag, lam, rho):
            print(" ".join(order))
    _emit({"value": str(nu)}, args.format)
    return 0


def _relative(args) -> int:
    lam, rho = Partition.parse(args.lam or ""), Partition.parse(args.rho or "")
    return invariants.relative_gw(args.d, args.g, lam, rho)


# kind -> (the flags it needs, its value from the parsed arguments)
INVARIANTS = {
    "gw": (("d", "g"), lambda args: invariants.gw(args.d, args.g)),
    "severi": (("d", "delta"), lambda args: invariants.severi(args.d, args.delta)),
    "relative": (("d", "g"), _relative),
    "welschinger": (("d",), lambda args: invariants.welschinger(args.d)),
}


def cmd_invariant(args) -> int:
    flags, call = INVARIANTS[args.kind]
    if args.table:
        _bound("--max-d", args.max_d, 1, INVARIANT_MAX_D)
        if args.kind not in ("gw", "severi"):
            raise DiagramError(f"--table supports gw and severi, not {args.kind}")
        # one CSV row for each d = 1..--max-d (default 5) and second flag 0..6;
        # the top degree runs first, so every row reads its one sweep
        top = 5 if args.max_d is None else args.max_d
        call(argparse.Namespace(d=top, **{flags[1]: 0}))
        print(",".join(flags) + ",value")
        for d in range(1, top + 1):
            for x in range(7):
                print(f"{d},{x},{call(argparse.Namespace(d=d, **{flags[1]: x}))}")
        return 0
    _bound("--d", args.d, 1, INVARIANT_MAX_D, f" for {args.kind}")
    _bound("--g", args.g, 0)
    _bound("--delta", args.delta, 0)
    _require(
        all(getattr(args, flag) is not None for flag in flags),
        f"{args.kind} needs " + " and ".join(f"--{flag}" for flag in flags),
    )
    _emit({"value": str(call(args))}, args.format)
    return 0


def cmd_nodepoly(args) -> int:
    _bound("--delta", args.delta, 0, NODEPOLY_MAX_DELTA)
    if args.evaluate:
        key, _, raw = args.evaluate.partition("=")
        _require(key == "d" and raw.isascii() and raw.isdigit(), "--evaluate expects d=<int>")
        # N_delta(d) has degree 2 delta <= 16 and its coefficients' absolute
        # values sum to under 10^10 (1.6e9 at delta = 8), so a d of at most k
        # digits gives a value of at most 16k + 10 digits: k <= 256 stays within
        # the 4,300 digits Python converts between int and text by default
        _bound("--evaluate digit count", len(raw), high=256)
    poly, threshold = nodepoly.node_polynomial(args.delta)
    payload = {
        "delta": args.delta,
        "polynomial": poly.format("d"),
        "coefficients": [str(c) for c in poly.coefficients],
        "threshold": threshold,
    }
    if args.evaluate:
        payload["evaluation"] = {raw: str(poly.eval_int(int(raw)))}
    if args.aj:
        ajs = nodepoly.aj_polynomials(args.delta)
        payload["aj"] = {
            f"A_{j+1}": {
                "polynomial": p.format("d"),
                "degree": p.degree,
                "quadratic": p.degree <= 2,
            }
            for j, p in enumerate(ajs)
        }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"N_{args.delta}(d) = {payload['polynomial']}")
        print(f"valid for d >= {threshold}")
        if "evaluation" in payload:
            for d, v in payload["evaluation"].items():
                print(f"value at d={d}: {v}")
        if "aj" in payload:
            for name, info in payload["aj"].items():
                quad = "quadratic" if info["quadratic"] else "NOT quadratic"
                print(f"{name}(d) = {info['polynomial']}  [{quad}]")
    return 0


def cmd_sequence(args) -> int:
    if args.which == "z":
        _bound("--max-d", args.max_d, 1, SEQUENCE_MAX_D)
        print("d,fixed_point,free_point")
        for d in range(1, args.max_d + 1):
            z = sequences.max_tangency_fixed(d)
            print(f"{d},{z},{sequences.max_tangency_free(d)}")
    else:
        _bound("--order", args.order, high=ODE_MAX_ORDER)
        residual = sequences.ode_residual(args.order)
        ok = all(c == 0 for c in residual)
        series = sequences.tangency_series(min(args.order, 8))
        print("series:", ", ".join(str(c) for c in series))
        print("residual:", ", ".join(str(c) for c in residual))
        print("ok" if ok else "NONZERO RESIDUAL")
        if not ok:
            return 1
    return 0


def cmd_bijection(args) -> int:
    if args.which == "to-tree":
        _require(args.diagram is not None, "to-tree needs --diagram")
        tree = sequences.diagram_to_tree(FloorDiagram.from_text(args.diagram))
        print(tree.text())
    else:
        _require(args.tree is not None, "to-diagram needs --tree")
        diag = sequences.tree_to_diagram(LabeledTree.from_text(args.tree))
        print(diag.text())
    return 0


def cmd_counts(args) -> int:
    _bound("--d", args.d, 1, COUNTS_MAX_D)
    report = sequences.closed_counts(args.d)
    payload = {name: str(getattr(report, name)) for name in sequences.CountReport.__slots__}
    payload["d"] = report.d  # the one field that is not a count
    _emit(payload, args.format)
    return 0


def cmd_tropical(args) -> int:
    if args.which == "reconstruct":
        _require(args.diagram is not None, "reconstruct needs --diagram")
        _require(args.marking is not None, "reconstruct needs --marking")
        diag = _diagram_arg(args.diagram)
        genus = diag.genus()
        config = tropical.stretched_config(diag.d, genus, args.config_seed)
        sketch = tropical.reconstruct(diag, tuple(args.marking.split()), config)
        report = tropical.verify_curve(sketch, diag.d, genus)
        if args.svg:
            render_svg(sketch, args.svg)
            print(f"wrote {args.svg}")
        print("verify:", "ok" if report.ok else "FAILED")
        for check in report.failures():
            print(f"  {check.name}: {check.detail}")
        return 0 if report.ok else 1
    # gallery
    from pathlib import Path

    out = Path(args.out)
    # an ordinary marking of a connected (d, g) diagram has d floors,
    # d - 1 + g edges and d sinks
    check_listing_size(3 * args.d - 1 + args.g)
    config = tropical.stretched_config(args.d, args.g, args.config_seed)
    count = 0
    for diag in enumerate_diagrams(DiagramQuery(args.d, genus=args.g)):
        for order in list_markings(diag, Partition(()), Partition.ones(diag.d)):
            sketch = tropical.reconstruct(diag, order, config)
            report = tropical.verify_curve(sketch, args.d, args.g)
            if not report.ok:
                print(f"verification failed for {diag.text()}", file=sys.stderr)
                return 1
            count += 1
            render_svg(sketch, out / f"curve-{count:03d}.svg")
    print(f"wrote {count} sketches to {out}")
    return 0


def cmd_render(args) -> int:
    order = tuple(args.marking.split()) if args.marking else None
    diag = _diagram_arg(args.diagram, RENDER_MAX_D if order is None else DIAGRAM_MAX_D)
    render_svg(diag, args.out, order=order)
    print(f"wrote {args.out}")
    return 0


def cmd_verify_tables(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    counts_max_d = COUNTS_MAX_D if "counts" in suites else None
    _bound("--max-d", args.max_d, 1, counts_max_d, " for the counts suite")
    _require(
        args.suite != "nodepoly" or args.max_d is None,
        "--max-d does not apply to the nodepoly suite: template rows have no degree",
    )
    failures = [f"MISMATCH {f}" for suite in suites for f in SUITES[suite](args.max_d)]
    print("\n".join(failures) if failures else "OK")
    return 1 if failures else 0


def _check_frozen(name: str, table, value, max_d: int | None) -> list[str]:
    """``value(d, x)`` against each entry of ``table()`` with d at most max_d
    (default 5); the last entry, of the top degree, runs first, so every
    entry reads its one sweep."""
    limit = 5 if max_d is None else max_d
    rows = sorted((key, expect) for key, expect in table().items() if key[0] <= limit)
    value(*rows[-1][0])
    return [
        f"{name}({d},{x}) = {got}, table says {expect}"
        for (d, x), expect in rows
        if (got := value(d, x)) != expect
    ]


def _check_relative(max_d: int | None) -> list[str]:
    ref = tables.relative_table()
    genus0 = zip(ref["columns"], ref["totals"])
    bad = []
    for d, g, rows in [(ref["d"], ref["g"], genus0), (ref["d"], 1, ref["genus1"])]:
        if max_d is not None and d > max_d:
            continue
        for (lam_text, rho_text), expect in rows:
            lam, rho = Partition.parse(lam_text), Partition.parse(rho_text)
            got = invariants.relative_gw(d, g, lam, rho)
            if got != expect:
                bad.append(f"relative({d},{g},{lam_text!r},{rho_text!r}) = {got} != {expect}")
    return bad


def _check_tangency(max_d: int | None) -> list[str]:
    limit = 10 if max_d is None else max_d
    bad = []
    for d, fixed, free in tables.max_tangency_table():
        if d > limit:
            continue
        if sequences.max_tangency_fixed(d) != fixed:
            bad.append(f"z({d}) != {fixed}")
        if sequences.max_tangency_free(d) != free:
            bad.append(f"d*z({d}) != {free}")
    return bad


def _check_appendix(max_d: int | None) -> list[str]:
    bad = []
    for row in tables.appendix_rows():
        if max_d is not None and row["d"] > max_d:
            continue
        diag = FloorDiagram(row["d"], tuple(tuple(e) for e in row["edges"]))
        if diag.multiplicity() != row["mu"]:
            bad.append(f"mu({diag.text()}) != {row['mu']}")
        if count_markings(diag) != row["nu"]:
            bad.append(f"nu({diag.text()}) != {row['nu']}")
        if row["tree"] is not None:
            tree = sequences.diagram_to_tree(diag)
            if tree.edges != frozenset(tuple(e) for e in row["tree"]):
                bad.append(f"tree({diag.text()}) != {row['tree']}")
    return bad


def _check_nodepoly(max_d: int | None) -> list[str]:
    # the frozen templates' mu * P, summed per (cogenus, length, k_min,
    # epsilon), against the group sums node_polynomial's state DP reads
    frozen: dict = {}
    for row in tables.template_rows():
        key = (row["delta"], row["ell"], row["k_min"], row["eps"])
        poly = nodepoly.RatPolynomial(row["P"]).scale(row["mu"])
        frozen[key] = frozen.get(key, nodepoly.RatPolynomial()) + poly
    swept = {
        (cogenus, length, k_min, eps): nodepoly._from_newton(sums)
        for cogenus in {key[0] for key in frozen}
        for length, k_min, eps, sums in nodepoly._template_groups(cogenus)
    }
    bad = [
        f"template group {key} = {swept.get(key)}, table says {frozen.get(key)}"
        for key in sorted(frozen.keys() | swept.keys())
        if swept.get(key) != frozen.get(key)
    ]
    for j, coeffs in enumerate(tables.aj_reference(3), start=1):
        got = nodepoly.aj_polynomials(3)[j - 1]
        if got != nodepoly.RatPolynomial(coeffs):
            bad.append(f"A_{j} = {got} != {list(coeffs)}")
    return bad


def _check_counts(max_d: int | None) -> list[str]:
    bad = []
    for d in range(1, (6 if max_d is None else max_d) + 1):
        report = sequences.closed_counts(d)
        if report.cayley != report.genus0_enumerated:
            bad.append(f"cayley mismatch at d={d}")
        if report.odd_formula != report.odd_enumerated:
            bad.append(f"odd-count mismatch at d={d}")
    return bad


# suite -> check(--max-d) listing its mismatches, in the order --suite all
# runs them; every suite but nodepoly skips the rows above --max-d, and
# nodepoly, whose template rows have no degree, checks every row under
# --suite all and refuses --max-d on its own
SUITES = {
    "gw": partial(_check_frozen, "gw", tables.gw_table, invariants.gw),
    "severi": partial(_check_frozen, "severi", tables.severi_table, invariants.severi),
    "relative": _check_relative,
    "tangency": _check_tangency,
    "appendix": _check_appendix,
    "nodepoly": _check_nodepoly,
    "counts": _check_counts,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _bound(flag: str, value: int | None, low=None, high=None, note: str = "") -> None:
    """Refuse ``value`` below ``low`` or above ``high``; None, a flag not given, passes."""
    if value is None:
        return
    least = "nonnegative" if low == 0 else f"at least {low}"
    _require(low is None or value >= low, f"{flag} must be {least}, got {value}")
    _require(high is None or value <= high, f"{flag} must be at most {high}{note}, got {value}")


class UsageError(Exception):
    pass


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floordiagrams",
        description="Exact plane-curve counts via labeled floor diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list diagrams for a degree and target")
    p.add_argument(
        "--d", type=int, required=True, help=f"degree, at most {ENUMERATE_MAX_D}"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--genus", type=int)
    group.add_argument("--cogenus", type=int)
    p.add_argument("--connected", action="store_true", help="restrict cogenus queries")
    p.add_argument("--filter", default=None)
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("markings", help="count (and list) markings of a diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_markings)

    p = sub.add_parser("invariant", help="compute an enumerative invariant")
    p.add_argument("kind", choices=list(INVARIANTS))
    p.add_argument(
        "--d",
        type=int,
        help=f"degree, at most {INVARIANT_MAX_D} for gw, severi, relative and welschinger "
        "(the largest measured; the sweep's cost grows about 4x per degree)",
    )
    p.add_argument("--g", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--table", action="store_true", help="emit the full table as CSV")
    p.add_argument(
        "--max-d", type=int, default=None, help=f"with --table, at most {INVARIANT_MAX_D}"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("nodepoly", help="symbolic node polynomial for a cogenus")
    p.add_argument(
        "--delta",
        type=int,
        required=True,
        help=f"cogenus, at most {NODEPOLY_MAX_DELTA} (the largest measured; the "
        "template-group sweep grows about 3x per cogenus)",
    )
    p.add_argument("--evaluate", default=None, metavar="d=N")
    p.add_argument("--aj", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_nodepoly)

    p = sub.add_parser("sequence", help="maximal-tangency sequence and ODE check")
    p.add_argument("which", choices=["z", "ode-check"])
    p.add_argument(
        "--max-d", type=int, default=16, help=f"with z, at most {SEQUENCE_MAX_D}"
    )
    p.add_argument(
        "--order", type=int, default=10, help=f"with ode-check, at most {ODE_MAX_ORDER}"
    )
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("bijection", help="diagram/tree bijection")
    p.add_argument("which", choices=["to-tree", "to-diagram"])
    p.add_argument("--diagram", default=None)
    p.add_argument("--tree", default=None)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("counts", help="closed counting formulas vs enumeration")
    p.add_argument(
        "--d",
        type=int,
        required=True,
        help=f"degree, at most {COUNTS_MAX_D} (the largest measured; all d^(d-2) "
        "genus-0 diagrams are held in memory)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("tropical", help="tropical curve reconstruction")
    p.add_argument("which", choices=["reconstruct", "gallery"])
    p.add_argument("--diagram", default=None)
    p.add_argument("--marking", default=None)
    p.add_argument("--config-seed", type=int, default=0)
    p.add_argument("--svg", default=None)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--g", type=int, default=0)
    p.add_argument("--out", default="gallery")
    p.set_defaults(func=cmd_tropical)

    p = sub.add_parser("render", help="emit an SVG of a diagram or marking")
    p.add_argument("--diagram", required=True)
    p.add_argument("--marking", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify-tables", help="recompute and diff the golden tables")
    p.add_argument("--suite", default="all", choices=["all", *SUITES])
    p.add_argument("--max-d", type=int, default=None)
    p.set_defaults(func=cmd_verify_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at shutdown
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout goes to devnull, so that the flush at shutdown cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DiagramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
