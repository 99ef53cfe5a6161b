"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid mathematical input or a
failed table verification), 2 usage error.  JSON output serializes all
counts as decimal strings so arbitrary-precision values survive parsers
that assume doubles.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import invariants, nodepoly, sequences, tables, tropical
from .core import DiagramError, FloorDiagram, Partition
from .enumeration import DiagramQuery, enumerate_diagrams
from .markings import check_listing_size, count_markings, count_relative_markings, list_markings
from .render import render_svg
from .sequences import LabeledTree

# the largest cogenus measured (N_8: 1.5 s, 28 MB on a 2-CPU x86-64 host;
# the template-group sweep grows about 3x per cogenus); larger values wait
# for a Caporaso-Harris check past the threshold and are refused up front
NODEPOLY_MAX_DELTA = 8

# the largest degree measured for gw, severi, relative and welschinger (the
# sweep over every tangency profile at d = 9: 1.7-3.0 s, 28 MB on a 2-CPU
# x86-64 host, about 4x per degree; welschinger(9): 0.15-0.3 s, 16 MB);
# larger degrees are refused before any sweep
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


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}" if key != "value" else value)


# -- subcommand handlers ------------------------------------------------------


def cmd_enumerate(args) -> int:
    _require(args.d >= 1, f"--d must be at least 1, got {args.d}")
    _require(
        args.d <= ENUMERATE_MAX_D, f"--d must be at most {ENUMERATE_MAX_D}, got {args.d}"
    )
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


def _diagram_arg(text: str) -> FloorDiagram:
    diag = FloorDiagram.from_text(text)
    _require(
        diag.d <= DIAGRAM_MAX_D,
        f"--diagram degree must be at most {DIAGRAM_MAX_D}, got {diag.d}",
    )
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


def cmd_invariant(args) -> int:
    if args.table:
        _require_max_d(args.max_d)
        _require(
            args.max_d is None or args.max_d <= INVARIANT_MAX_D,
            f"--max-d must be at most {INVARIANT_MAX_D}, got {args.max_d}",
        )
        return _invariant_table(args)
    if args.d is not None:
        _require(args.d >= 1, f"--d must be at least 1, got {args.d}")
        _require(
            args.d <= INVARIANT_MAX_D,
            f"--d must be at most {INVARIANT_MAX_D} for {args.kind}, got {args.d}",
        )
    if args.g is not None:
        _require(args.g >= 0, f"--g must be nonnegative, got {args.g}")
    if args.delta is not None:
        _require(args.delta >= 0, f"--delta must be nonnegative, got {args.delta}")
    if args.kind == "gw":
        _require(args.d is not None and args.g is not None, "gw needs --d and --g")
        value = invariants.gw(args.d, args.g)
    elif args.kind == "severi":
        _require(args.d is not None and args.delta is not None, "severi needs --d and --delta")
        value = invariants.severi(args.d, args.delta)
    elif args.kind == "relative":
        _require(args.d is not None and args.g is not None, "relative needs --d and --g")
        lam = Partition.parse(args.lam or "")
        rho = Partition.parse(args.rho or "")
        value = invariants.relative_gw(args.d, args.g, lam, rho)
    else:
        _require(args.d is not None, "welschinger needs --d")
        value = invariants.welschinger(args.d)
    _emit({"value": str(value)}, args.format)
    return 0


def _invariant_table(args) -> int:
    max_d = 5 if args.max_d is None else args.max_d
    if args.kind == "gw":
        print("d,g,value")
        for d in range(1, max_d + 1):
            for g in range(0, 7):
                print(f"{d},{g},{invariants.gw(d, g)}")
    elif args.kind == "severi":
        print("d,delta,value")
        for d in range(1, max_d + 1):
            for delta in range(0, 7):
                print(f"{d},{delta},{invariants.severi(d, delta)}")
    else:
        raise DiagramError(f"--table supports gw and severi, not {args.kind}")
    return 0


def cmd_nodepoly(args) -> int:
    _require(args.delta >= 0, f"--delta must be nonnegative, got {args.delta}")
    _require(
        args.delta <= NODEPOLY_MAX_DELTA,
        f"--delta must be at most {NODEPOLY_MAX_DELTA}, got {args.delta}",
    )
    poly, threshold = nodepoly.node_polynomial(args.delta)
    payload = {
        "delta": args.delta,
        "polynomial": poly.format("d"),
        "coefficients": [str(c) for c in poly.coefficients],
        "threshold": threshold,
    }
    if args.evaluate:
        key, _, raw = args.evaluate.partition("=")
        _require(key == "d" and raw.isdigit(), "--evaluate expects d=<int>")
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
        _require_max_d(args.max_d)
        _require(
            args.max_d <= SEQUENCE_MAX_D,
            f"--max-d must be at most {SEQUENCE_MAX_D}, got {args.max_d}",
        )
        print("d,fixed_point,free_point")
        for d in range(1, args.max_d + 1):
            z = sequences.max_tangency_fixed(d)
            print(f"{d},{z},{sequences.max_tangency_free(d)}")
    else:
        _require(
            args.order <= ODE_MAX_ORDER,
            f"--order must be at most {ODE_MAX_ORDER}, got {args.order}",
        )
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
    _require(args.d >= 1, f"--d must be at least 1, got {args.d}")
    _require(args.d <= COUNTS_MAX_D, f"--d must be at most {COUNTS_MAX_D}, got {args.d}")
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
    diag = FloorDiagram.from_text(args.diagram) if order is None else _diagram_arg(args.diagram)
    render_svg(diag, args.out, order=order)
    print(f"wrote {args.out}")
    return 0


def cmd_verify_tables(args) -> int:
    _require_max_d(args.max_d)
    failures = []
    suites = (
        ["gw", "severi", "relative", "tangency", "appendix", "nodepoly", "counts"]
        if args.suite == "all"
        else [args.suite]
    )
    _require(
        "counts" not in suites or args.max_d is None or args.max_d <= COUNTS_MAX_D,
        f"--max-d must be at most {COUNTS_MAX_D} for the counts suite, got {args.max_d}",
    )
    for suite in suites:
        failures.extend(_verify_suite(suite, args.max_d))
    if failures:
        for f in failures:
            print(f"MISMATCH {f}")
        return 1
    print("OK")
    return 0


def _verify_suite(suite: str, max_d: int | None) -> list[str]:
    bad: list[str] = []
    if suite == "gw":
        limit = 5 if max_d is None else max_d
        for (d, g), expect in sorted(tables.gw_table().items()):
            if d > limit:
                continue
            got = invariants.gw(d, g)
            if got != expect:
                bad.append(f"gw({d},{g}) = {got}, table says {expect}")
    elif suite == "severi":
        limit = 5 if max_d is None else max_d
        for (d, delta), expect in sorted(tables.severi_table().items()):
            if d > limit:
                continue
            got = invariants.severi(d, delta)
            if got != expect:
                bad.append(f"severi({d},{delta}) = {got}, table says {expect}")
    elif suite == "relative":
        ref = tables.relative_table()
        for (lam_text, rho_text), expect in [
            (tuple(col), value)
            for col, value in zip(ref["columns"], ref["totals"])
        ]:
            lam, rho = Partition.parse(lam_text), Partition.parse(rho_text)
            got = invariants.relative_gw(ref["d"], ref["g"], lam, rho)
            if got != expect:
                bad.append(f"relative(3,0,{lam_text!r},{rho_text!r}) = {got} != {expect}")
        for (lam_text, rho_text), expect in ref["genus1"]:
            lam, rho = Partition.parse(lam_text), Partition.parse(rho_text)
            got = invariants.relative_gw(3, 1, lam, rho)
            if got != expect:
                bad.append(f"relative(3,1,{lam_text!r},{rho_text!r}) = {got} != {expect}")
    elif suite == "tangency":
        limit = 10 if max_d is None else max_d
        for d, fixed, free in tables.max_tangency_table():
            if d > limit:
                continue
            if sequences.max_tangency_fixed(d) != fixed:
                bad.append(f"z({d}) != {fixed}")
            if sequences.max_tangency_free(d) != free:
                bad.append(f"d*z({d}) != {free}")
    elif suite == "appendix":
        for row in tables.appendix_rows():
            diag = FloorDiagram(row["d"], tuple(tuple(e) for e in row["edges"]))
            if diag.multiplicity() != row["mu"]:
                bad.append(f"mu({diag.text()}) != {row['mu']}")
            if count_markings(diag) != row["nu"]:
                bad.append(f"nu({diag.text()}) != {row['nu']}")
            if row["tree"] is not None:
                tree = sequences.diagram_to_tree(diag)
                if tree.edges != frozenset(tuple(e) for e in row["tree"]):
                    bad.append(f"tree({diag.text()}) != {row['tree']}")
    elif suite == "nodepoly":
        for row in tables.template_rows():
            template = nodepoly.Template(tuple(tuple(e) for e in row["edges"]))
            stats = template.stats()
            expect = (row["ell"], row["mu"], row["eps"], tuple(row["kappa"]), row["k_min"])
            if stats != expect:
                bad.append(f"template {row['edges']} stats {stats} != {expect}")
            poly = nodepoly.extension_polynomial(template)
            ref = nodepoly.RatPolynomial(tuple(Fraction(c) for c in row["P"]))
            if poly != ref:
                bad.append(f"P for {row['edges']}: {poly} != {ref}")
        for j, coeffs in enumerate(tables.aj_reference(3), start=1):
            got = nodepoly.aj_polynomials(3)[j - 1]
            if got != nodepoly.RatPolynomial(coeffs):
                bad.append(f"A_{j} = {got} != {list(coeffs)}")
    elif suite == "counts":
        limit = 6 if max_d is None else max_d
        for d in range(1, limit + 1):
            report = sequences.closed_counts(d)
            if report.cayley != report.genus0_enumerated:
                bad.append(f"cayley mismatch at d={d}")
            if report.odd_formula != report.odd_enumerated:
                bad.append(f"odd-count mismatch at d={d}")
    else:
        raise DiagramError(f"unknown suite {suite!r}")
    return bad


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _require_max_d(max_d: int | None) -> None:
    _require(max_d is None or max_d >= 1, f"--max-d must be at least 1, got {max_d}")


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
    p.add_argument("kind", choices=["gw", "severi", "relative", "welschinger"])
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
    p.add_argument(
        "--suite",
        default="all",
        choices=["all", "gw", "severi", "relative", "tangency", "appendix", "nodepoly", "counts"],
    )
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
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
