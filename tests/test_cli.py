import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from floordiagrams.cli import DIAGRAM_MAX_D, main


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


def test_verify_tables_gw_low_degree(capsys):
    code, out, _ = run(capsys, "verify-tables", "--suite", "gw", "--max-d", "4")
    assert code == 0
    assert out.strip() == "OK"


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
    # without a marking, render draws a diagram of any degree
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
