import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodense.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_solve_1d_asymmetric(capsys):
    code, out, _ = run_cli(capsys, "solve", "--dim", "1", "--p", "2",
                           "--a", "0.25", "--mass", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["branch"] == "asymmetric"
    assert rec["perimeter"] == pytest.approx(2.08008, abs=1e-4)
    assert rec["alpha"] * rec["beta"] == pytest.approx(-0.25, abs=1e-10)
    assert abs(rec["mass_residual"]) < 1e-9


def test_solve_2d_centred(capsys):
    code, out, _ = run_cli(capsys, "solve", "--dim", "2", "--p", "2",
                           "--a", "1", "--mass", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["branch"] == "centred"
    assert rec["R"] == pytest.approx(0.52849, abs=1e-4)


def test_solve_rejects_nonpositive_exponent(capsys):
    code, _, err = run_cli(capsys, "solve", "--dim", "1", "--p", "-1",
                           "--a", "0.5", "--mass", "1")
    assert code == 1
    assert "error" in err


def test_solve_force_numeric_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "solve", "--dim", "1", "--p", "2",
                           "--a", "0.25", "--mass", "1", "--force-numeric")
    assert code == 0
    rec = json.loads(out)
    assert rec["perimeter"] == pytest.approx(2.08008, abs=1e-4)


def test_acrit(capsys):
    code, out, _ = run_cli(capsys, "acrit", "--p", "2", "--dim", "2", "--mass", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["a_crit"] == pytest.approx(math.sqrt(2 / (3 * math.pi)), rel=1e-10)
    code, _, _ = run_cli(capsys, "acrit", "--p", "2", "--dim", "1")
    assert code == 1


def test_sweep_1d_p2_perimeter_flat_then_rising(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--dim", "1", "--p", "2", "--mass", "1",
                         "--a-min", "0", "--a-max", "1", "--steps", "101",
                         "--out", str(out_file))
    assert code == 0
    header, rows = read_csv(out_file)
    assert header == ["a", "branch", "alpha", "beta", "perimeter", "mass_residual"]
    a = np.array([float(r[0]) for r in rows])
    per = np.array([float(r[4]) for r in rows])
    a_crit = 0.25 * 3 ** (2 / 3)
    below = per[a <= a_crit]
    assert np.allclose(below, 3 ** (2 / 3), rtol=1e-12)
    above = per[a > a_crit + 0.02]
    assert np.all(np.diff(above) > 0)
    resid = np.array([float(r[5]) for r in rows])
    assert np.max(np.abs(resid)) <= 1e-8


def test_sweep_byte_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for f in (f1, f2):
        code, _, _ = run_cli(capsys, "sweep", "--dim", "1", "--p", "0.5", "--mass", "1",
                             "--a-min", "0.05", "--a-max", "0.8", "--steps", "17",
                             "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_parallel_same_bytes(tmp_path, capsys, monkeypatch):
    # ISODENSE_THREADS once chose a thread pool for sweeps; a stale setting
    # must leave the output unchanged
    f1, f2 = tmp_path / "serial.csv", tmp_path / "par.csv"
    code, _, _ = run_cli(capsys, "sweep", "--dim", "2", "--p", "2", "--mass", "1",
                         "--a-min", "0", "--a-max", "1", "--steps", "9",
                         "--out", str(f1))
    assert code == 0
    monkeypatch.setenv("ISODENSE_THREADS", "4")
    code, _, _ = run_cli(capsys, "sweep", "--dim", "2", "--p", "2", "--mass", "1",
                         "--a-min", "0", "--a-max", "1", "--steps", "9",
                         "--out", str(f2))
    assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("mass", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["solve", "--dim", "1", "--p", "2", "--a", "0.1"],
    ["sweep", "--dim", "2", "--p", "2", "--a-min", "0", "--a-max", "1", "--steps", "3"],
    ["contour", "--p", "2", "--a", "0.1"],
    ["evolve", "--dim", "2", "--p", "2", "--a", "0.2"],
    ["acrit", "--p", "2", "--dim", "2"],
], ids=lambda argv: argv[0])
def test_mass_must_be_positive_and_finite(capsys, argv, mass):
    code, out, err = run_cli(capsys, *argv, "--mass", mass)
    assert code == 1
    assert out == ""
    assert "--mass" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("budget", [["--iters", "-5"], ["--tol", "nan"], ["--tol", "inf"],
                                    ["--tol", "-1"]], ids=" ".join)
@pytest.mark.parametrize("dim", ["2", "3"])
def test_evolve_rejects_bad_iters_and_tol(capsys, dim, budget):
    code, out, err = run_cli(capsys, "evolve", "--dim", dim, "--p", "2", "--a", "0.2", *budget)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--dim", "1", "--p", "4", "--a", "0.1", "--mass", "1e-300"],
    ["solve", "--dim", "1", "--p", "4", "--a", "1e200", "--mass", "1"],
    ["sweep", "--dim", "1", "--p", "1.5", "--a-min", "0", "--a-max", "1e300", "--steps", "3"],
])
def test_extreme_1d_inputs_meet_the_relative_mass_constraint(capsys, argv):
    # tiny masses and huge offsets put the endpoints far below 1, where a
    # bisection started on [0, 1] ran out of halvings
    code, out, err = run_cli(capsys, *argv)
    assert "Traceback" not in err
    if code == 2:  # the solver may decline, but only as a numeric failure
        assert "numeric failure" in err
        return
    assert code == 0, err
    if argv[0] == "solve":
        rec = json.loads(out)
        resids = [rec["mass_residual"] / rec["mass"]]
    else:
        resids = [float(line.split(",")[5]) for line in out.splitlines()[1:]]
        assert len(resids) == 3
    assert all(abs(r) <= 1e-12 for r in resids)


@pytest.mark.parametrize("a, mass, beta", [("1e6", "1e-3", 1e-9), ("1e200", "1", 1e-200)])
def test_p1_endpoint_at_large_offsets(capsys, a, mass, beta):
    # beta is about M/a; as sqrt(a*a + 2*M) - a it cancelled to 9.31e-10
    # at a = 1e6 and overflowed to an exit 1 at a = 1e200
    code, out, err = run_cli(capsys, "solve", "--dim", "1", "--p", "1", "--a", a, "--mass", mass)
    assert code == 0, err
    rec = json.loads(out)
    assert rec["alpha"] == 0.0 and rec["beta"] == beta
    assert abs(rec["mass_residual"]) <= 1e-12 * float(mass)


def test_1d_p2_mass_past_the_float_range_of_the_cube(capsys):
    # beta**3 of the interval's primitive overflowed at beta = 6.7e102 (exit 2)
    code, out, err = run_cli(capsys, "solve", "--dim", "1", "--p", "2", "--a", "0.5",
                             "--mass", "1e308")
    assert code == 0, err
    rec = json.loads(out)
    assert abs(rec["mass_residual"]) <= 1e-12 * 1e308


@pytest.mark.parametrize("argv, key, value", [
    (["--p", "5e307", "--dim", "1", "--a", "1"], "critical_mass", 4.0),
    (["--p", "1e308", "--dim", "3", "--mass", "1"], "a_crit", 3.0 / (16.0 * math.pi)),
], ids=["dim1-critical_mass", "dim3-a_crit"])
def test_acrit_at_huge_p(capsys, argv, key, value):
    code, out, err = run_cli(capsys, "acrit", *argv)
    assert code == 0, err
    assert json.loads(out)[key] == pytest.approx(value, rel=1e-11)


@pytest.mark.parametrize("argv", [
    ["--p", "4", "--dim", "1", "--a", "1e308"],
    ["--p", "4", "--dim", "3", "--a", "1.7e308"],
    ["--p", "4", "--dim", "2", "--a", "1e300"],
], ids=" ".join)
def test_acrit_overflow_is_a_one_line_numeric_failure(capsys, argv):
    code, out, err = run_cli(capsys, "acrit", *argv)
    assert code == 2
    assert out == ""
    assert err == "numeric failure: critical_mass not finite\n"


@pytest.mark.parametrize("argv", [
    ["--p", "1e-3", "--a", "0.5", "--mass", "1.7e308"],
    ["--p", "300", "--a", "0.5", "--mass", "1.7e308"],
], ids=" ".join)
def test_huge_1d_mass_is_a_one_line_numeric_failure(capsys, argv):
    # near the top of the float range the endpoint (p = 1e-3), or its p-th
    # power in the perimeter (p = 300), is past it; the message names which.
    # The perimeter once read as a mass miss: "relative mass residual inf"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "solve", "--dim", "1", *argv)
    assert code == 2
    assert out == ""
    assert [str(w.message) for w in caught] == []
    assert len(err.strip().splitlines()) == 1
    cause = {"1e-3": "radial mass inverse has a root past the float range\n",
             "300": "perimeter of [0.0, 10.770996014015722]"}[argv[1]]
    assert err.startswith("numeric failure: " + cause)
    assert err.endswith(" past the float range\n")


@pytest.mark.parametrize("argv", [
    ["--p", "0.5", "--a", "1", "--mass", "1.7e308", "--force-numeric"],
    ["--p", "1.5", "--a", "0", "--mass", "1.7e308"],
    ["--p", "1.5", "--a", "0.1", "--mass", "1e308"],
    ["--p", "1", "--a", "0.1", "--mass", "1e308"],
    ["--p", "4", "--a", "0.1", "--mass", "1e308"],
    ["--p", "0.9", "--a", "0.1", "--mass", "1.5e308"],
    ["--p", "0.5", "--a", "0", "--mass", "1.5e308"],
], ids=" ".join)
def test_huge_1d_mass_solves_one_ended(capsys, argv):
    # m*(p+1) overflows though the endpoint does not: the inverse's Newton
    # start, and the p = 1/2 closed form at a = 0, take its root one factor
    # at a time.  An infinite start once gave an infinite one-ended endpoint,
    # so p = 1.5, a = 0.1 printed an asymmetric interval with a higher
    # perimeter, and the other cases exited 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "solve", "--dim", "1", *argv)
    assert (code, err) == (0, "")
    assert [str(w.message) for w in caught] == []
    rec = json.loads(out)
    assert rec["branch"] == "at_origin" and rec["alpha"] == 0.0
    assert abs(rec["mass_residual"]) <= 1e-12 * rec["mass"]


def test_huge_steps_is_a_one_line_usage_error(capsys, monkeypatch):
    # --steps 100000000000 makes np.linspace raise MemoryError; fake it rather
    # than allocate
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(np, "linspace", no_memory)
    code, out, err = run_cli(capsys, "sweep", "--dim", "1", "--p", "4", "--a-min", "0",
                             "--a-max", "1", "--steps", "100000000000")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "out of memory" in err


@pytest.mark.parametrize("p", ["4", "1.5", "0.5"])
def test_sweep_rows_match_solve(tmp_path, capsys, p):
    out_file = tmp_path / "s.csv"
    code, _, _ = run_cli(capsys, "sweep", "--dim", "1", "--p", p, "--mass", "1.3",
                         "--a-min", "0", "--a-max", "1.5", "--steps", "7",
                         "--out", str(out_file))
    assert code == 0
    _, rows = read_csv(out_file)
    for row in rows:
        code, out, _ = run_cli(capsys, "solve", "--dim", "1", "--p", p, "--a", row[0],
                               "--mass", "1.3")
        assert code == 0
        rec = json.loads(out)
        assert row[1] == rec["branch"]
        assert [float(v) for v in row[2:]] == [
            rec["alpha"], rec["beta"], rec["perimeter"], rec["mass_residual"]]


def test_sweep_p1_slope_approaches_two(tmp_path, capsys):
    out_file = tmp_path / "p1.csv"
    code, _, _ = run_cli(capsys, "sweep", "--dim", "1", "--p", "1", "--mass", "1",
                         "--a-min", "49.9", "--a-max", "50.1", "--steps", "3",
                         "--out", str(out_file))
    assert code == 0
    _, rows = read_csv(out_file)
    a0, p0 = float(rows[0][0]), float(rows[0][4])
    a2, p2 = float(rows[2][0]), float(rows[2][4])
    slope = (p2 - p0) / (a2 - a0)
    assert 1.99 <= slope <= 2.0


def test_sweep_3d_area_constant(tmp_path, capsys):
    out_file = tmp_path / "s3.csv"
    a_crit = (15 / (32 * math.pi)) ** 0.4
    code, _, _ = run_cli(capsys, "sweep", "--dim", "3", "--p", "2", "--mass", "1",
                         "--a-min", "0", "--a-max", f"{a_crit}", "--steps", "11",
                         "--out", str(out_file))
    assert code == 0
    header, rows = read_csv(out_file)
    assert header == ["a", "branch", "R", "r0", "perimeter", "mass_residual"]
    per = np.array([float(r[4]) for r in rows])
    assert np.allclose(per, 8 * math.pi * (15 / (32 * math.pi)) ** 0.8, rtol=1e-12)


def test_sweep_unwritable_path_is_io_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--dim", "1", "--p", "2", "--mass", "1",
                           "--a-min", "0", "--a-max", "1", "--steps", "3",
                           "--out", "/nonexistent/dir/x.csv")
    assert code == 3
    assert "I/O" in err


def test_contour_grid2_and_constraint_flag(tmp_path, capsys):
    out_file = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, "contour", "--p", "1", "--a", "0.5", "--mass", "1",
                         "--grid", "2", "--out", str(out_file))
    assert code == 0
    header, rows = read_csv(out_file)
    assert header == ["alpha_abs", "beta", "perimeter", "mass", "on_constraint"]
    assert len(rows) == 4


def test_contour_p1_circle_identity_on_flagged_points(tmp_path, capsys):
    out_file = tmp_path / "c1.csv"
    code, _, _ = run_cli(capsys, "contour", "--p", "1", "--a", "0.5", "--mass", "1",
                         "--grid", "41", "--out", str(out_file))
    assert code == 0
    _, rows = read_csv(out_file)
    a = 0.5
    flagged = [r for r in rows if r[4] == "1"]
    assert flagged
    for r in flagged:
        s, b, _, m = float(r[0]), float(r[1]), float(r[2]), float(r[3])
        assert (s + a) ** 2 + (b + a) ** 2 == pytest.approx(2 * (m + a * a), abs=1e-10)
        assert abs(m - 1.0) < 0.2


def test_contour_p_half_discrete_curvature_signs(tmp_path, capsys):
    out_file = tmp_path / "ch.csv"
    code, _, _ = run_cli(capsys, "contour", "--p", "0.5", "--a", "0.5", "--mass", "1",
                         "--grid", "61", "--out", str(out_file))
    assert code == 0
    _, rows = read_csv(out_file)
    n = 61
    alpha = np.array([float(r[0]) for r in rows]).reshape(n, n)[:, 0]
    beta = np.array([float(r[1]) for r in rows]).reshape(n, n)[0, :]
    per = np.array([float(r[2]) for r in rows]).reshape(n, n)
    mass = np.array([float(r[3]) for r in rows]).reshape(n, n)

    def trace(field, level):
        # beta(alpha) along a level set, by monotone interpolation in beta
        out = []
        for i in range(n):
            col = field[i, :]
            if col[0] <= level <= col[-1]:
                out.append(np.interp(level, col, beta))
            else:
                out.append(np.nan)
        return np.array(out)

    for field, level, sign in ((per, 1.9, +1), (mass, 1.0, -1)):
        b = trace(field, level)
        ok = ~np.isnan(b)
        idx = np.where(ok)[0]
        idx = idx[(idx > 0) & (idx < n - 1)]
        second = b[idx + 1] - 2 * b[idx] + b[idx - 1]
        second = second[~np.isnan(second)]
        inner = second[2:-2]
        assert np.all(sign * inner > 0)


def test_write_csv_matches_the_per_value_format(tmp_path, capsys, monkeypatch):
    import isodense.cli as cli_mod

    x = np.array([-0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan, 1.0 / 3.0, -2.5e-7,
                  123456789012345.0, 0.0, 7.0])
    ints = [0, 1, -3, 10 ** 15, 2, 5, 6, 7, 8, 9, 11]
    names = ["a", "centred", "b", "at_origin", "c", "d", "e", "f", "g", "h", "i"]
    flags = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1], dtype=np.int8)
    expected = "x,k,name,y,flag\n" + "".join(
        ",".join([f"{v + 0.0:.12g}", str(k), s, f"{w + 0.0:.12g}", str(int(f))]) + "\n"
        for v, k, s, w, f in zip(x.tolist(), ints, names, x[::-1].tolist(), flags))
    columns = [x, ints, names, x[::-1], flags]
    header = ["x", "k", "name", "y", "flag"]
    for block in (4, len(x), 4096):  # several blocks, one exact block, one partial block
        monkeypatch.setattr(cli_mod, "CSV_BLOCK_ROWS", block)
        path = tmp_path / f"w{block}.csv"
        cli_mod._write_csv(str(path), header, columns)
        assert path.read_text() == expected
        cli_mod._write_csv(None, header, columns)
        assert capsys.readouterr().out == expected


def _contour_reference(p, a, mass, n):
    """The contour CSV built row by row with f-strings, from the same grid."""
    from isodense import Density
    from isodense.density import radial_mass_inverse
    from isodense.interval1d import contour_grid

    extent = 1.05 * float(radial_mass_inverse(p, a, mass))
    with np.errstate(over="ignore"):
        g = contour_grid(Density(p, a), extent, n)
    band = 0.5 * max(np.max(np.abs(np.diff(g.mass, axis=0))),
                     np.max(np.abs(np.diff(g.mass, axis=1))))
    lines = ["alpha_abs,beta,perimeter,mass,on_constraint"]
    for i in range(n):
        for j in range(n):
            m = float(g.mass[i, j])
            values = [float(g.nodes[i]), float(g.nodes[j]), float(g.perimeter[i, j]), m]
            lines.append(",".join([f"{v + 0.0:.12g}" for v in values]
                                  + [str(int(abs(m - mass) < band))]))
    return "\n".join(lines) + "\n"


class _WriteRecorder(io.StringIO):
    """A stdout that records the number of lines in each write."""

    def __init__(self):
        super().__init__()
        self.lines_per_write = []

    def write(self, text):
        self.lines_per_write.append(text.count("\n"))
        return super().write(text)


def _contour_outputs(argv, path):
    """(stdout, --out file text, lines per stdout write) of one contour that exits 0."""
    stdout = _WriteRecorder()
    with redirect_stdout(stdout):
        code = main(["contour", *argv])
    assert code == 0
    with redirect_stdout(io.StringIO()):
        code = main(["contour", *argv, "--out", str(path)])
    assert code == 0
    return stdout.getvalue(), path.read_text(), stdout.lines_per_write


@pytest.mark.parametrize("n", [2, 70])
@pytest.mark.parametrize("mass", [1e-300, 1.2, 1e300])  # the extremes print in exponent form
@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize("p", [0.5, 4.0])
def test_contour_rows_stream_and_match_a_row_by_row_reference(tmp_path, p, a, mass, n):
    argv = ["--p", str(p), "--a", str(a), "--mass", str(mass), "--grid", str(n)]
    stdout, written, lines_per_write = _contour_outputs(argv, tmp_path / "c.csv")
    assert written == stdout
    assert lines_per_write == [1] + [n] * n  # the header, then one grid row at a time
    assert stdout == _contour_reference(p, a, mass, n)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.1, 8.0), a=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       mass=st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0, exclude_max=True),
                      st.integers(-300, 300)),
       n=st.integers(2, 40))
def test_contour_bytes_match_the_reference_for_any_grid(p, a, mass, n):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["--p", repr(p), "--a", repr(a), "--mass", repr(mass), "--grid", str(n)]
        stdout, written, _ = _contour_outputs(argv, Path(tmp) / "c.csv")
    assert written == stdout
    assert stdout == _contour_reference(p, a, mass, n)


@pytest.mark.parametrize("n", [2, 5, 101])
def test_contour_formats_each_grid_coordinate_once(capsys, monkeypatch, n):
    import isodense.cli as cli_mod

    conversions = []
    fmt_each = cli_mod._fmt_each

    def counted(template, *columns):
        conversions.append(template.count(b"%.12g") * len(columns[0]))
        return fmt_each(template, *columns)

    monkeypatch.setattr(cli_mod, "_fmt_each", counted)
    code, out, _ = run_cli(capsys, "contour", "--p", "4", "--a", "0.3", "--grid", str(n))
    assert code == 0
    assert len(out.splitlines()) == n * n + 1
    # n nodes, shared by both axes, and each symmetric (perimeter, mass) pair once
    assert sum(conversions) == n + n * (n + 1)


def test_contour_failure_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    from isodense.numerics import NumericError
    import isodense.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    out_file = tmp_path / "c.csv"
    monkeypatch.setattr(cli_mod, "contour_grid", boom)
    code, out, err = run_cli(capsys, "contour", "--p", "2", "--a", "0.1", "--grid", "5",
                             "--out", str(out_file))
    assert code == 2
    assert "numeric failure" in err
    assert out == ""
    assert not out_file.exists()
    monkeypatch.undo()
    code, _, err = run_cli(capsys, "contour", "--p", "2", "--a", "0.1", "--grid", "5",
                           "--out", str(tmp_path / "missing" / "c.csv"))
    assert code == 3
    assert "I/O" in err


@pytest.mark.parametrize("argv, columns", [
    (["--p", "4", "--a", "1e308"], "perimeter"),
    (["--p", "1e308", "--a", "0.5"], "perimeter, mass"),
    (["--p", "2", "--a", "0.1", "--mass", "1e308"], "mass"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_contour_nonfinite_grid_is_a_one_line_numeric_failure(tmp_path, capsys, argv, columns):
    # these grids once printed inf and nan values with exit 0
    out_file = tmp_path / "c.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "contour", *argv, "--grid", "3", "--out", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    assert [str(w.message) for w in caught] == []
    assert err == f"numeric failure: contour grid: {columns} not finite\n"


@pytest.mark.parametrize("mass", ["5e307", "7.5e307"])
def test_contour_at_a_mass_whose_sum_of_powers_overflows(capsys, mass):
    # S**3 + B**3 (at 7.5e307 also S**3) passes the float range, though every grid mass fits
    from isodense import Density

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "contour", "--p", "2", "--a", "0.5",
                                 "--mass", mass, "--grid", "5")
    assert code == 0 and err == ""
    assert [str(w.message) for w in caught] == []
    rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
    assert len(rows) == 25
    F = Density(2.0, 0.5).primitive
    for s, b, per, mass, _ in rows:
        assert math.isfinite(per) and mass == pytest.approx(F(s) + F(b), rel=1e-11)
    assert max(r[3] for r in rows) > 1e308  # the corner, 2.3 times the mass
    assert sum(r[4] for r in rows) > 0  # the constraint line is flagged


def test_evolve_smoke_and_curve_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "evolve", "--dim", "2", "--p", "2", "--a", "1",
                           "--mass", "1", "--vertices", "64", "--iters", "300",
                           "--tol", "1e-8", "--out", str(out_file))
    assert code == 0
    rec = json.loads(out)
    assert rec["converged"]
    assert rec["isoperimetric_quotient"] == pytest.approx(1.0, abs=1e-2)
    assert rec["center_offset_estimate"] < 1e-2  # centred branch at a=1
    header, rows = read_csv(out_file)
    assert header == ["vertex_index", "x", "y"]
    assert len(rows) == 64


def test_evolve_3d_smoke(tmp_path, capsys):
    out_file = tmp_path / "profile.csv"
    code, out, _ = run_cli(capsys, "evolve", "--dim", "3", "--p", "2", "--a", "0.3",
                           "--mass", "1", "--vertices", "49", "--iters", "400",
                           "--tol", "1e-8", "--out", str(out_file))
    assert code == 0
    rec = json.loads(out)
    assert rec["weighted_perimeter"] == pytest.approx(5.4862, rel=2e-2)
    assert rec["isoperimetric_quotient"] is None
    header, rows = read_csv(out_file)
    assert header == ["vertex_index", "x", "y"]


def test_sweep_2d_general_exponent(tmp_path, capsys):
    out_file = tmp_path / "p3.csv"
    code, _, _ = run_cli(capsys, "sweep", "--dim", "2", "--p", "3", "--mass", "1",
                         "--a-min", "0.5", "--a-max", "1.5", "--steps", "3",
                         "--out", str(out_file))
    assert code == 0
    _, rows = read_csv(out_file)
    assert all(r[1] == "centred" for r in rows)
    assert all(abs(float(r[5])) <= 1e-8 for r in rows)


def test_verify_fast_suites(capsys):
    for suite in ("branch-continuity", "reduction", "radial-quadrature", "oracle1d",
                  "evolver-p2"):
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == 0, out
        assert "all checks passed" in out
        assert "FAIL" not in out


def test_verify_oracle1d_checks_the_minimizer_against_the_p2_closed_form(capsys):
    _, out, _ = run_cli(capsys, "verify", "oracle1d")
    rows = [line for line in out.splitlines() if "closed form p=2" in line]
    assert len(rows) == 8 and all(r.startswith("  [PASS]") for r in rows)
    # and its endpoints, to 1e-12 * s_sym
    rows = [line for line in out.splitlines() if "endpoints p=2" in line]
    assert len(rows) == 8 and all(r.startswith("  [PASS]") for r in rows)


def test_verify_spectral(capsys):
    code, out, _ = run_cli(capsys, "verify", "spectral")
    assert code == 0, out
    assert out.count("[PASS]") == 4
    assert "all checks passed" in out


def test_solve_2d_nonquadratic_flags_centred_branch(capsys):
    code, out, _ = run_cli(capsys, "solve", "--dim", "2", "--p", "3",
                           "--a", "0.05", "--mass", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["branch"] == "centred"
    assert "note" in rec
    # well above the critical offset the caveat disappears
    code, out, _ = run_cli(capsys, "solve", "--dim", "2", "--p", "3",
                           "--a", "5", "--mass", "1")
    assert "note" not in json.loads(out)
    # for p <= 1 (log rho)'' < 0 at every radius: the centred ball is never optimal
    for dim in ("2", "3"):
        for p in ("0.5", "1"):
            code, out, _ = run_cli(capsys, "solve", "--dim", dim, "--p", p,
                                   "--a", "5", "--mass", "1")
            assert code == 0
            rec = json.loads(out)
            assert rec["branch"] == "centred"
            assert "never optimal" in rec["note"], (dim, p)


@pytest.mark.parametrize("argv", [
    ["solve", "--dim", "2", "--p", "4", "--a", "1e200", "--mass", "1e-200"],
    ["solve", "--dim", "3", "--p", "4", "--a", "1e200", "--mass", "1e-200"],
    ["sweep", "--dim", "3", "--p", "4", "--a-min", "0", "--a-max", "1e200", "--steps", "3",
     "--mass", "1e-200"],
], ids=["solve-2d", "solve-3d", "sweep-3d"])
def test_tiny_centred_balls_at_huge_offsets_solve(capsys, argv):
    # M*d/a underflows in the Newton start, R**d in the mass check; R does not
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if argv[0] == "solve":
        rec = json.loads(out)
        assert 0.0 < rec["R"] and abs(rec["mass_residual"]) <= 1e-12 * 1e-200
    else:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3 and all(0.0 < float(r[2]) for r in rows)


def test_tiny_interval_at_huge_offset_is_numeric_failure(capsys):
    # its endpoint, about 5e-401, lies below the float range
    code, _, err = run_cli(capsys, "solve", "--dim", "1", "--p", "4", "--a", "1e200",
                           "--mass", "1e-200")
    assert code == 2
    assert "numeric failure" in err


def test_numeric_failure_exit_code(capsys, monkeypatch):
    from isodense.numerics import NumericError
    import isodense.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli_mod, "evolve_2d", boom)
    code, _, err = run_cli(capsys, "evolve", "--dim", "2", "--p", "2", "--a", "0.2",
                           "--mass", "1", "--vertices", "64", "--iters", "10")
    assert code == 2
    assert "numeric failure" in err


def test_p_half_closed_form_disagreement_is_numeric_failure(capsys, monkeypatch):
    import isodense.interval1d as interval1d_mod

    monkeypatch.setattr(interval1d_mod, "_beta_p_lt_1_closed", lambda p, a, M0: 2.0)
    code, _, err = run_cli(capsys, "solve", "--dim", "1", "--p", "0.5", "--a", "0.5",
                           "--mass", "1")
    assert code == 2
    assert "numeric failure" in err


@pytest.mark.parametrize("argv", [
    ["--dim", "3", "--p", "2", "--a", "0.1", "--mass", "1e-300"],
    ["--dim", "2", "--p", "4", "--a", "0.1", "--mass", "1e-300"],
    ["--dim", "1", "--p", "2", "--a", "1e8", "--mass", "1"],
    ["--dim", "2", "--p", "2", "--a", "1e8", "--mass", "1"],
    ["--dim", "2", "--p", "2", "--a", "1e6", "--mass", "1"],
], ids=" ".join)
def test_centred_balls_meet_the_relative_mass_constraint(capsys, argv):
    # tiny radii and huge offsets: the radius is the Newton inverse of the radial mass
    code, out, err = run_cli(capsys, "solve", *argv)
    assert code == 0, err
    rec = json.loads(out)
    assert rec["branch"] in ("centred", "symmetric")
    assert abs(rec["mass_residual"]) <= 1e-12 * rec["mass"]


def test_centred_ball_mass_residual_is_numeric_failure(capsys, monkeypatch):
    # a radius that misses the mass is refused, never printed
    import isodense.radial as radial_mod

    inverse = radial_mod.radial_mass_inverse
    monkeypatch.setattr(radial_mod, "radial_mass_inverse",
                        lambda *args: inverse(*args) * (1.0 + 1e-9))
    code, out, err = run_cli(capsys, "solve", "--dim", "3", "--p", "2", "--a", "0.1",
                             "--mass", "1e-300")
    assert code == 2
    assert out == ""
    assert "numeric failure" in err
    assert "Traceback" not in err


def test_p_half_closed_form_steps_aside_when_its_terms_overflow(capsys):
    code, out, err = run_cli(capsys, "solve", "--dim", "1", "--p", "0.5",
                             "--a", "2.69661696932527e+80", "--mass", "4.150746624605548e+288")
    assert code == 0, err
    rec = json.loads(out)
    assert abs(rec["mass_residual"]) <= 1e-12 * rec["mass"]


def test_evolve_unwritable_out_prints_no_record(capsys):
    code, out, err = run_cli(capsys, "evolve", "--dim", "2", "--p", "2", "--a", "0.2",
                             "--vertices", "64", "--iters", "5",
                             "--out", "/nonexistent/x.csv")
    assert code == 3
    assert out == ""
    assert "I/O error" in err


@pytest.mark.uncertified_start
def test_evolve_3d_tiny_mass_returns_the_centred_sphere(capsys):
    # at unit mass the offset is 2.7e170, past what the spectral solve
    # resolves, so the descent starts from the sphere; the density is then
    # the constant offset, whose optimum is any ball.  The descent's inner
    # products once underflowed to "mass gradient vanished" here.
    from isodense import Density, Dimension, symmetric_ball
    code, out, err = run_cli(capsys, "evolve", "--dim", "3", "--p", "4", "--a", "0.1",
                             "--mass", "1e-300", "--vertices", "33")
    assert code == 0 and err == ""
    rec = json.loads(out)
    ball = symmetric_ball(Density(4, 0.1), Dimension(3), 1e-300)
    assert rec["converged"]
    assert abs(rec["weighted_mass"] / 1e-300 - 1.0) <= 1e-8
    # the 33-point profile's area lies 4e-4 above the sphere's
    assert 0.0 <= rec["weighted_perimeter"] / ball.perimeter - 1.0 <= 1e-3
    assert abs(rec["radius_estimate"] / ball.radius - 1.0) <= 5e-3


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 1
    assert "unknown suite" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "solve", "--dim", "7", "--p", "2", "--a", "0")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--dim", "1", "--p", "4", "--a", "1e308"],
    ["solve", "--dim", "1", "--p", "0.5", "--a", "1e308"],
    ["sweep", "--dim", "1", "--p", "4", "--a-min", "0", "--a-max", "1e308", "--steps", "3"],
], ids=" ".join)
def test_nonfinite_result_is_a_one_line_numeric_failure(tmp_path, capsys, argv):
    # the interval's perimeter, about 2a, overflows: the solve once printed
    # "perimeter": null and the sweep a row with inf, both with exit 0
    out_file = tmp_path / "s.csv"
    extra = ["--out", str(out_file)] if argv[0] == "sweep" else []
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 2
    assert out == "" and not out_file.exists()
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("numeric failure: offset a=1e+308: perimeter")


@pytest.mark.parametrize("argv, cause", [
    (["sweep", "--dim", "1", "--p", "1", "--a-min", "1.8814672133785313e+77",
      "--a-max", "1.7976931348623157e+308", "--steps", "22"], "offset a=9.416487849278796e+307"),
    (["evolve", "--dim", "2", "--p", "1e-300", "--a", "14274672", "--mass", "1e-300",
      "--vertices", "64", "--iters", "0"], "mass projection did not converge"),
    (["evolve", "--dim", "3", "--p", "1.0051312191802512e16", "--a", "3.4570810051530968e252",
      "--mass", "2.2250738585e-313", "--vertices", "33", "--iters", "0"],
     "offset 3.4570810051530968e+252 at mass 2.2250738585e-313 is past the float range"),
    (["contour", "--p", "3.185827619718356e+90", "--a", "3.185827619718356e+90",
      "--mass", "1e-300", "--grid", "8"],
     "contour grid: extent 0.0 at mass 1e-300 is not positive"),
], ids=["sweep-linspace", "evolve-gradient", "evolve-unit-mass-offset", "contour-extent"])
def test_extreme_inputs_are_one_line_numeric_failures(capsys, argv, cause):
    # found by the argument property tests: np.linspace's last offset and the
    # evolver's kernels once printed numpy overflow warnings before the failure
    # line, the spectral start's offset at unit mass raised OverflowError, and
    # contour's extent, the one-ended endpoint underflowed to 0, was a usage error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert [str(w.message) for w in caught] == []
    assert err.startswith("numeric failure: " + cause)
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("a", ["1e308", "1.7e308"])
def test_3d_centred_ball_multiplier_prints_at_huge_offsets(capsys, a):
    code, out, err = run_cli(capsys, "solve", "--dim", "3", "--p", "2", "--a", a)
    assert code == 0, err
    rec = json.loads(out)
    assert rec["lagrange_multiplier"] == pytest.approx(-2.0 / rec["R"], rel=1e-11)


@pytest.mark.parametrize("bounds, message", [
    (["--a-min", "0", "--a-max", "inf"], "--a-max must be finite, got inf"),
    (["--a-min=-inf", "--a-max", "1"], "--a-min must be finite, got -inf"),
    (["--a-min", "0", "--a-max", "nan"], "--a-max must be finite, got nan"),
], ids=["inf", "-inf", "nan"])
def test_sweep_nonfinite_offset_bound_is_a_one_line_usage_error(capsys, bounds, message):
    # np.linspace once warned "invalid value encountered in multiply" on
    # stderr before the offsets' own check reported "got nan"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "sweep", "--dim", "1", "--p", "4", *bounds,
                                 "--steps", "3")
    assert code == 1
    assert out == ""
    assert [str(w.message) for w in caught] == []
    assert err == f"error: {message}\n"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "isodense", "solve", "--dim", "2", "--p", "2",
                           "--a", "1"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["branch"] == "centred"
    usage = subprocess.run([sys.executable, "-m", "isodense", "solve"], capture_output=True,
                           text=True, env=env, timeout=60)
    assert usage.returncode == 1
    assert "usage: isodense" in usage.stderr
