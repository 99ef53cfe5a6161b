import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import cli_transcript
import pytest

from floordiagrams import cli, invariants, sequences, tables
from floordiagrams.cli import DIAGRAM_MAX_D, RENDER_MAX_D, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_gw(capsys):
    code, out, _ = run(capsys, "invariant", "gw", "--d", "3", "--g", "0")
    assert code == 0
    assert out.strip() == "12"


def test_invariant_relative(capsys):
    code, out, _ = run(
        capsys, "invariant", "relative", "--d", "3", "--g", "0",
        "--lambda", "2", "--rho", "1",
    )
    assert code == 0
    assert out.strip() == "10"


def test_invariant_welschinger(capsys):
    code, out, _ = run(capsys, "invariant", "welschinger", "--d", "4")
    assert code == 0
    assert out.strip() == "240"


def test_invariant_welschinger_at_the_degree_limit(capsys):
    code, out, _ = run(capsys, "invariant", "welschinger", "--d", "9")
    assert code == 0
    assert out.strip() == "248962406889600"


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "invariant", "gw", "--d", "0", "--g", "0")
    assert code == 2
    assert "usage error" in err
    assert run(capsys, "--cache-dir", "x", "enumerate", "--d", "3", "--genus", "1")[0] == 2
    assert run(capsys, "--threads", "2", "invariant", "gw", "--d", "4", "--g", "0")[0] == 2
    for argv in [
        ["tropical", "reconstruct", "--diagram", "d=2; edges=(1,2,1)"],
        ["tropical", "reconstruct", "--marking", "v1 v2"],
        ["invariant", "gw", "--table", "--max-d", "0"],
        ["invariant", "severi", "--table", "--max-d", "-2"],
        ["verify-tables", "--suite", "gw", "--max-d", "0"],
        ["verify-tables", "--max-d", "-2"],
        ["sequence", "z", "--max-d", "0"],
        ["sequence", "z", "--max-d", "-3"],
        ["nodepoly", "--delta", "9"],
        ["invariant", "gw", "--d", "10", "--g", "0"],
        ["invariant", "severi", "--d", "10", "--delta", "0"],
        ["invariant", "relative", "--d", "10", "--g", "0", "--rho", ",".join("1" * 10)],
        ["invariant", "relative", "--d", "12", "--g", "0", "--lambda", "12"],
        ["invariant", "gw", "--table", "--max-d", "10"],
        ["invariant", "welschinger", "--d", "10"],
        ["counts", "--d", "9"],
        ["verify-tables", "--suite", "counts", "--max-d", "9"],
        ["verify-tables", "--suite", "all", "--max-d", "9"],
        ["sequence", "z", "--max-d", "61"],
        ["sequence", "ode-check", "--order", "61"],
        ["enumerate", "--d", "8", "--genus", "0"],
        ["enumerate", "--d", "9", "--cogenus", "0", "--connected"],
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1


# one case per usage-error message: the argv and the exact message
USAGE_ERRORS = [
    (["enumerate", "--d", "0", "--genus", "0"], "--d must be at least 1, got 0"),
    (["enumerate", "--d", "8", "--genus", "0"], "--d must be at most 7, got 8"),
    (["enumerate", "--d", "3", "--cogenus", "-1"], "genus / cogenus must be nonnegative"),
    (["markings", "--diagram", "d=21; edges="], "--diagram degree must be at most 20, got 21"),
    (["invariant", "gw", "--table", "--max-d", "0"], "--max-d must be at least 1, got 0"),
    (["invariant", "severi", "--table", "--max-d", "10"], "--max-d must be at most 9, got 10"),
    (["invariant", "relative", "--table"], "--table supports gw and severi, not relative"),
    (["invariant", "welschinger", "--table"], "--table supports gw and severi, not welschinger"),
    # the bound on --d is reported before the missing --g
    (["invariant", "gw", "--d", "0"], "--d must be at least 1, got 0"),
    (["invariant", "welschinger", "--d", "10"], "--d must be at most 9 for welschinger, got 10"),
    (["invariant", "relative", "--g", "-1"], "--g must be nonnegative, got -1"),
    (["invariant", "severi", "--d", "3", "--delta", "-1"], "--delta must be nonnegative, got -1"),
    (["invariant", "gw", "--d", "3"], "gw needs --d and --g"),
    (["invariant", "severi", "--d", "3", "--g", "0"], "severi needs --d and --delta"),
    (["invariant", "relative", "--g", "0"], "relative needs --d and --g"),
    (["invariant", "welschinger", "--g", "0"], "welschinger needs --d"),
    (["nodepoly", "--delta", "-1"], "--delta must be nonnegative, got -1"),
    (["nodepoly", "--delta", "9"], "--delta must be at most 8, got 9"),
    (["nodepoly", "--delta", "2", "--evaluate", "x=3"], "--evaluate expects d=<int>"),
    (["sequence", "z", "--max-d", "0"], "--max-d must be at least 1, got 0"),
    (["sequence", "z", "--max-d", "61"], "--max-d must be at most 60, got 61"),
    (["sequence", "ode-check", "--order", "61"], "--order must be at most 60, got 61"),
    (["bijection", "to-tree"], "to-tree needs --diagram"),
    (["bijection", "to-diagram"], "to-diagram needs --tree"),
    (["counts", "--d", "0"], "--d must be at least 1, got 0"),
    (["counts", "--d", "9"], "--d must be at most 8, got 9"),
    (["tropical", "reconstruct", "--marking", "v1"], "reconstruct needs --diagram"),
    (["tropical", "reconstruct", "--diagram", "d=2; edges=(1,2,1)"], "reconstruct needs --marking"),
    (["verify-tables", "--max-d", "0"], "--max-d must be at least 1, got 0"),
    (
        ["verify-tables", "--suite", "nodepoly", "--max-d", "3"],
        "--max-d does not apply to the nodepoly suite: template rows have no degree",
    ),
    (
        ["verify-tables", "--suite", "counts", "--max-d", "9"],
        "--max-d must be at most 8 for the counts suite, got 9",
    ),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS]
)
def test_usage_error_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_unknown_command_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run(
        capsys, "invariant", "relative", "--d", "3", "--g", "0",
        "--lambda", "3", "--rho", "3",
    )
    assert code == 1
    assert "error" in err
    cases = [
        ["enumerate", "--d", "3", "--genus", "0", "--filter", spec]
        for spec in ["contains=garbage", "contains=(1,2)", "has-weight=x"]
    ]
    cases += [
        ["markings", "--diagram", f"d=3; edges={edges}", "--list"]
        for edges in ["(1,2,1);(2,3,1", "1,2,1;2,3,1", "((1,2,1));(2,3,1)"]
    ]
    cases += [
        ["markings", "--diagram", "d=3; edges=(1,2,1)", "--lambda", "x", "--rho", "1"],
        ["invariant", "relative", "--d", "3", "--g", "0", "--lambda", "a", "--rho", "1"],
        ["sequence", "ode-check", "--order", "0"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_json_numbers_are_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "invariant", "gw", "--d", "4", "--g", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "620"


def test_enumerate_text_and_jsonl(capsys):
    code, out, _ = run(capsys, "enumerate", "--d", "3", "--genus", "0")
    assert code == 0
    assert out.splitlines() == [
        "d=3; edges=(1,2,1);(2,3,1)",
        "d=3; edges=(1,2,1);(2,3,2)",
        "d=3; edges=(1,3,1);(2,3,1)",
    ]
    code, out, _ = run(
        capsys, "enumerate", "--d", "3", "--genus", "0", "--format", "jsonl"
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["d"] == 3


def test_enumerate_filter(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--d", "4", "--genus", "0", "--filter", "odd"
    )
    assert code == 0
    assert len(out.splitlines()) == 8


def test_markings_command(capsys):
    code, out, _ = run(
        capsys, "markings", "--diagram", "d=3; edges=(1,2,1);(2,3,1)"
    )
    assert code == 0
    assert out.strip() == "5"
    code, out, _ = run(
        capsys, "markings", "--diagram", "d=3; edges=(1,2,1);(2,3,2)",
        "--lambda", "3", "--rho", "",
    )
    assert out.strip() == "1"


def test_markings_list(capsys):
    code, out, _ = run(
        capsys, "markings", "--diagram", "d=3; edges=(1,2,1);(2,3,1)", "--list"
    )
    lines = out.splitlines()
    assert lines[-1] == "5"
    assert len(lines) == 6


def test_nodepoly_command(capsys):
    code, out, _ = run(
        capsys, "nodepoly", "--delta", "2", "--evaluate", "d=4", "--aj",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["evaluation"]["4"] == "225"
    assert payload["threshold"] == 4
    assert payload["aj"]["A_2"]["quadratic"] is True


def test_sequence_commands(capsys):
    code, out, _ = run(capsys, "sequence", "z", "--max-d", "4")
    assert code == 0
    assert out.splitlines()[-1] == "4,138,552"
    code, out, _ = run(capsys, "sequence", "ode-check", "--order", "6")
    assert code == 0
    assert out.splitlines()[-1] == "ok"


def test_bijection_commands(capsys):
    code, out, _ = run(
        capsys, "bijection", "to-tree", "--diagram", "d=3; edges=(1,2,1);(2,3,2)"
    )
    assert code == 0
    assert out.strip() == "d=3; edges=(1,2);(1,3)"
    code, out, _ = run(capsys, "bijection", "to-diagram", "--tree", out.strip())
    assert out.strip() == "d=3; edges=(1,2,1);(2,3,2)"


def test_counts_command(capsys):
    code, out, _ = run(capsys, "counts", "--d", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["cayley"] == "16"
    assert payload["odd_formula"] == payload["odd_enumerated"] == "8"


def test_tropical_reconstruct_command(tmp_path, capsys):
    svg = tmp_path / "curve.svg"
    code, out, _ = run(
        capsys, "tropical", "reconstruct",
        "--diagram", "d=3; edges=(1,2,1);(2,3,1)",
        "--marking", "v1 e1-2w1#0 v2 e2-3w1#0 v3 s2w1#0 s3w1#0 s3w1#1",
        "--svg", str(svg),
    )
    assert code == 0
    assert "verify: ok" in out
    assert svg.exists()


def test_tropical_reconstruct_refuses_a_disconnected_diagram(tmp_path, capsys):
    # the marking's four elements would leave the (2, 0)-configuration's
    # top point on no floor or elevator; drawing the marking needs no curve
    diag, marking = "d=2; edges=", "v1 s1w1#0 v2 s2w1#0"
    assert run(capsys, "tropical", "reconstruct", "--diagram", diag, "--marking", marking) == (
        1, "", "error: diagram must be connected, got 2 components\n"
    )
    svg = tmp_path / "m.svg"
    assert run(
        capsys, "render", "--diagram", diag, "--marking", marking, "--out", str(svg)
    ) == (0, f"wrote {svg}\n", "")


def test_tropical_gallery_command(tmp_path, capsys):
    code, out, _ = run(
        capsys, "tropical", "gallery", "--d", "3", "--g", "0",
        "--out", str(tmp_path / "gal"),
    )
    assert code == 0
    assert "wrote 9 sketches" in out
    assert len(list((tmp_path / "gal").glob("*.svg"))) == 9


def test_tropical_gallery_failure_creates_nothing(tmp_path, capsys):
    for argv in [["--d", "0", "--g", "0"], ["--d", "6", "--g", "0"]]:
        out_dir = tmp_path / "gal"
        code, _, err = run(capsys, "tropical", "gallery", *argv, "--out", str(out_dir))
        assert code == 1, argv
        assert err.startswith("error: ")
        assert not out_dir.exists(), argv


def test_tropical_gallery_refuses_an_oversized_degree_at_once(tmp_path, capsys):
    # degree 40 ran for minutes and degree 1000 overflowed the recursion
    # limit before the marking-listing limit was checked up front
    for d, elements in [(40, 119), (1000, 2999)]:
        out_dir = tmp_path / "gal"
        start = time.perf_counter()
        code, _, err = run(capsys, "tropical", "gallery", "--d", str(d), "--out", str(out_dir))
        assert time.perf_counter() - start < 1, d
        assert code == 1, d
        assert err == f"error: marking listing limited to 14 elements, got {elements}\n"
        assert not out_dir.exists(), d


def test_render_command(tmp_path, capsys):
    out_file = tmp_path / "d.svg"
    code, out, _ = run(
        capsys, "render", "--diagram", "d=2; edges=(1,2,1)", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.exists()
    # a marking is validated before anything is written
    for marking, want in [
        ("v1 e1-2w1#0 v2 s2w1#0 s2w1#0", 0),
        ("zz", 1),
        ("v1 e1-2w1#0 v2", 1),  # the sinks of floor 2 are missing
        ("v2 e1-2w1#0 v1 s2w1#0 s2w1#0", 1),  # floors out of order
    ]:
        out_file = tmp_path / f"m{want}.svg"
        code, out, err = run(
            capsys, "render", "--diagram", "d=2; edges=(1,2,1)",
            "--marking", marking, "--out", str(out_file),
        )
        assert code == want, marking
        assert out_file.exists() == (want == 0)
        if want:
            assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_render_degree_limit(capsys, tmp_path):
    svg = tmp_path / "chain.svg"
    diag, _ = _chain(RENDER_MAX_D)
    assert run(capsys, "render", "--diagram", diag, "--out", str(svg)) == (0, f"wrote {svg}\n", "")
    svg.unlink()
    d = RENDER_MAX_D + 1
    for diag in [_chain(d)[0], f"d={d}; edges="]:
        assert run(capsys, "render", "--diagram", diag, "--out", str(svg)) == (
            2, "", f"usage error: --diagram degree must be at most {RENDER_MAX_D}, got {d}\n"
        )
        assert not svg.exists()


def test_output_path_under_a_file_is_one_error_line(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    diag, marking = _chain(3)
    for argv in [
        ["tropical", "gallery", "--d", "2", "--g", "0", "--out", str(blocker)],
        ["tropical", "reconstruct", "--diagram", diag, "--marking", marking,
         "--svg", str(blocker / "c.svg")],
        ["render", "--diagram", diag, "--out", str(blocker / "x.svg")],
        ["render", "--diagram", diag, "--marking", marking, "--out", str(blocker / "x.svg")],
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and str(blocker) in err and len(err.splitlines()) == 1
    assert blocker.read_text() == ""


def test_nodepoly_evaluate_points(capsys):
    # N_8 at the largest point of the digit limit prints in full
    nines = "9" * 256
    code, out, err = run(capsys, "nodepoly", "--delta", "8", "--evaluate", f"d={nines}")
    assert (code, err) == (0, "")
    head, value = out.splitlines()[2].split(": ")
    assert head == f"value at d={nines}" and 4000 < len(value) < 4300
    for raw in ["\u00b2", "\u0663", "3\u00b2", "+3", " 3", "3.0", ""]:
        assert run(capsys, "nodepoly", "--delta", "2", "--evaluate", f"d={raw}") == (
            2, "", "usage error: --evaluate expects d=<int>\n"
        ), raw
    for digits in [257, 1000]:
        assert run(capsys, "nodepoly", "--delta", "8", "--evaluate", "d=" + "9" * digits) == (
            2, "", f"usage error: --evaluate digit count must be at most 256, got {digits}\n"
        ), digits


def test_invariant_table_csv(capsys):
    code, out, _ = run(
        capsys, "invariant", "gw", "--table", "--max-d", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,g,value"
    assert "3,0,12" in lines


def test_verify_tables_small_suites(capsys):
    for suite in ["relative", "appendix", "nodepoly", "tangency"]:
        code, out, _ = run(capsys, "verify-tables", "--suite", suite)
        assert code == 0, suite
        assert out.strip() == "OK"


def test_verify_tables_nodepoly_reports_a_corrupted_template(capsys, monkeypatch):
    # one coefficient of P for the template with two parallel weight-2
    # edges, 3 - 5/2 d + 1/2 d^2 times mu = 16, read as 4: its (cogenus,
    # length, k_min, epsilon) group's sum no longer equals the sweep's
    rows = copy.deepcopy(tables.template_rows())
    assert rows[3]["edges"] == [[0, 1, 2], [0, 1, 2]] and rows[3]["P"][0] == "3"
    rows[3]["P"][0] = "4"
    monkeypatch.setattr(tables, "template_rows", lambda: rows)
    assert run(capsys, "verify-tables", "--suite", "nodepoly") == (
        1,
        "MISMATCH template group (2, 1, 4, 0) = 8*x^2 - 40*x + 48, "
        "table says 8*x^2 - 40*x + 64\n",
        "",
    )


def serve_corrupted(monkeypatch, name, edit):
    """Every table getter reads frozen file ``name`` as changed by ``edit``.
    The gw and severi suites bind their getters at import, so the loader
    the getters call at run time is patched, not a getter."""
    data = copy.deepcopy(tables._load(name))
    edit(data)
    load = tables._load
    monkeypatch.setattr(tables, "_load", lambda file: data if file == name else load(file))


D3_CHAIN = "d=3; edges=(1,2,1);(2,3,1)"

# suite, the frozen file and the one value corrupted in it, the mismatch lines
CORRUPTED = [
    ("gw", "gw_table.json", lambda t: t["rows"]["3"].__setitem__(0, 13),
     ["gw(3,0) = 12, table says 13"]),
    ("severi", "severi_table.json", lambda t: t["rows"]["3"].__setitem__(1, 13),
     ["severi(3,1) = 12, table says 13"]),
    ("relative", "relative_table.json", lambda t: t["totals"].__setitem__(0, 37),
     ["relative(3,0,'','2,1') = 36 != 37"]),
    ("tangency", "max_tangency.json", lambda t: t["rows"][2].__setitem__(slice(1, 3), [8, 22]),
     ["z(3) != 8", "d*z(3) != 22"]),
    ("appendix", "appendix_a.json",
     lambda t: t["rows"][2].update(mu=2, nu=6, tree=[[1, 3], [2, 3]]),
     [f"mu({D3_CHAIN}) != 2", f"nu({D3_CHAIN}) != 6", f"tree({D3_CHAIN}) != [[1, 3], [2, 3]]"]),
    ("nodepoly", "aj_reference.json", lambda t: t["coefficients"][1].__setitem__(0, "-74"),
     ["A_2 = -42*x^2 + 117*x - 75 != [Fraction(-74, 1), Fraction(117, 1), Fraction(-42, 1)]"]),
]


@pytest.mark.parametrize(
    "suite, name, edit, lines", CORRUPTED, ids=[case[0] for case in CORRUPTED]
)
def test_verify_tables_reports_a_corrupted_value(capsys, monkeypatch, suite, name, edit, lines):
    serve_corrupted(monkeypatch, name, edit)
    flags = [] if suite == "nodepoly" else ["--max-d", "3"]
    report = "".join(f"MISMATCH {line}\n" for line in lines)
    assert run(capsys, "verify-tables", "--suite", suite, *flags) == (1, report, "")


def test_verify_tables_counts_reports_a_wrong_formula(capsys, monkeypatch):
    # the counts suite has no frozen file: it compares closed formulas with
    # the enumeration, so one formula is made wrong at d = 3
    cayley, odd = sequences.cayley_count, sequences.odd_diagram_count
    monkeypatch.setattr(sequences, "cayley_count", lambda d: cayley(d) + (d == 3))
    monkeypatch.setattr(sequences, "odd_diagram_count", lambda d: odd(d) + (d == 3))
    assert run(capsys, "verify-tables", "--suite", "counts", "--max-d", "3") == (
        1, "MISMATCH cayley mismatch at d=3\nMISMATCH odd-count mismatch at d=3\n", ""
    )


def test_render_refuses_floors_out_of_order(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["render", "--diagram", "d=2; edges=", "--marking", "v2 v1 s1w1#0 s2w1#0"]
    assert run(capsys, *argv, "--out", "bad.svg") == (
        1, "", "error: floors must appear in increasing order\n"
    )
    assert not (tmp_path / "bad.svg").exists()


def test_verify_tables_max_d_skips_higher_rows(capsys, monkeypatch):
    # relative's rows are all of degree 3, appendix's of degree 1 to 4
    seen = []
    relative_gw, count_markings = invariants.relative_gw, cli.count_markings
    monkeypatch.setattr(
        invariants, "relative_gw", lambda d, *rest: seen.append(d) or relative_gw(d, *rest)
    )
    monkeypatch.setattr(
        cli, "count_markings", lambda diag: seen.append(diag.d) or count_markings(diag)
    )
    for max_d, degrees in [("2", {1, 2}), ("3", {1, 2, 3}), (None, {1, 2, 3, 4})]:
        seen.clear()
        flag = [] if max_d is None else ["--max-d", max_d]
        for suite in ("relative", "appendix"):
            assert run(capsys, "verify-tables", "--suite", suite, *flag) == (0, "OK\n", "")
        assert set(seen) == degrees, max_d


def test_verify_tables_gw_low_degree(capsys):
    code, out, _ = run(capsys, "verify-tables", "--suite", "gw", "--max-d", "4")
    assert code == 0
    assert out.strip() == "OK"


@pytest.mark.parametrize(
    "argv, top",
    [
        (["invariant", "gw", "--table", "--max-d", "6"], 6),
        (["invariant", "severi", "--table"], 5),
        (["verify-tables", "--suite", "gw", "--max-d", "9"], 6),
        (["verify-tables", "--suite", "severi", "--max-d", "4"], 4),
    ],
)
def test_gw_and_severi_tables_run_one_sweep(capsys, argv, top):
    # the top degree runs first, so every lower row reads its sweep; the
    # frozen tables stop at degree 6
    cached = (
        invariants.gw, invariants.severi, invariants.relative_gw,
        invariants._connected, invariants._relative_rows,
    )
    for fn in cached:
        fn.cache_clear()
    try:
        assert run(capsys, *argv)[0] == 0
        assert list(invariants._SWEEPS) == [(top, (), (top,), False)]
    finally:
        for fn in cached:
            fn.cache_clear()


def test_cli_replays_its_transcript():
    # every case of tests/cli_transcript.py gives the exit code, stdout,
    # stderr and written files it gave when the transcript was recorded;
    # argparse's own help and usage layout differs between Python versions,
    # so those cases are compared only on the recording's version
    transcript = json.loads(cli_transcript.TRANSCRIPT.read_text())
    same_python = transcript["python"] == "%d.%d" % sys.version_info[:2]
    for case in transcript["cases"]:
        if same_python or "usage: " not in case["stdout"] + case["stderr"]:
            assert cli_transcript.run(case["argv"], main) == case, case["argv"]


def test_identical_invocations_identical_output(capsys):
    a = run(capsys, "enumerate", "--d", "4", "--genus", "1")
    b = run(capsys, "enumerate", "--d", "4", "--genus", "1")
    assert a == b


def _chain(d):
    """The genus-0 chain of degree d and one of its ordinary markings."""
    diag = f"d={d}; edges=" + ";".join(f"({v},{v + 1},1)" for v in range(1, d))
    marking = " ".join(f"v{v} e{v}-{v + 1}w1#0" for v in range(1, d))
    marking += f" v{d} " + " ".join(f"s{v}w1#0" for v in range(2, d)) + f" s{d}w1#0 s{d}w1#1"
    return diag, marking


def test_markings_lambda_labels_at_the_degree_limit(capsys):
    # 20! labellings of one floor plan, counted once
    ones = ",".join(["1"] * 20)
    start = time.perf_counter()
    assert run(capsys, "markings", "--diagram", "d=20; edges=", "--lambda", ones, "--rho", "") == (
        0, "2432902008176640000\n", ""
    )
    assert time.perf_counter() - start < 1


def test_markings_mixed_profile_at_the_degree_limit():
    # C(20, 10) floor plans; ordered one poset per plan, this ran for minutes,
    # so it runs in its own process under a timeout
    ones = ",".join(["1"] * 10)
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["markings", "--diagram", "d=20; edges=", "--lambda", ones, "--rho", ones]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "floordiagrams", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "71383376298044210400000\n", "")


def test_diagram_degree_limit(capsys, tmp_path):
    svg = str(tmp_path / "chain.svg")
    diag, marking = _chain(DIAGRAM_MAX_D)
    assert run(capsys, "markings", "--diagram", diag) == (0, "19450408302904228249600000\n", "")
    assert run(capsys, "tropical", "reconstruct", "--diagram", diag, "--marking", marking) == (
        0, "verify: ok\n", ""
    )
    assert run(capsys, "render", "--diagram", diag, "--marking", marking, "--out", svg) == (
        0, f"wrote {svg}\n", ""
    )
    # without a marking, render draws a diagram past DIAGRAM_MAX_D (up to RENDER_MAX_D)
    diag, _ = _chain(400)
    assert run(capsys, "render", "--diagram", diag, "--out", svg) == (0, f"wrote {svg}\n", "")
    # the distribution sweep recursed once per floor: d = 400 was a RecursionError
    for d in (DIAGRAM_MAX_D + 1, 400):
        diag, marking = _chain(d)
        for argv in (
            ["markings", "--diagram", diag],
            ["markings", "--diagram", f"d={d}; edges="],
            ["tropical", "reconstruct", "--diagram", diag, "--marking", marking],
            ["tropical", "reconstruct", "--diagram", f"d={d}; edges=", "--marking", "v1"],
            ["render", "--diagram", diag, "--marking", marking, "--out", svg],
            ["render", "--diagram", f"d={d}; edges=", "--marking", "v1", "--out", svg],
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out) == (2, ""), argv
            assert err == f"usage error: --diagram degree must be at most {DIAGRAM_MAX_D}, got {d}\n"


def test_package_runs_as_a_module():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "floordiagrams", "verify-tables", "--suite", "relative"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "OK\n", "")


def test_closed_stdout_ends_quietly():
    # 265 KB of diagrams overflow the pipe, so the writer meets the closed
    # end mid-stream; the flush at shutdown must not report it either
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "floordiagrams", "enumerate", "--d", "6", "--genus", "2"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().startswith("d=6; edges=")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, "")
