"""Property tests of the one radial mass inverse and every solver built on it.

A centred ball of radius R in dimension d (the interval [-R, R] when
d = 1) has mass k_d * G_d(R), G_d(R) = R**(p+d)/(p+d) + a*R**d/d.  Each
solver's answer must meet its mass to a relative 1e-12 for every mass in
[1e-200, 1e200], and the radius must follow the exact scaling
R(a, M) = M**(1/(p+d)) * R(a * M**(-p/(p+d)), 1).
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodense import (
    Density,
    Dimension,
    Interval,
    mass1d,
    offcenter_p2_2d,
    offcenter_p2_3d,
    solve_2d_p2,
    solve_3d_p2,
    solve_general,
    solve_p1,
    solve_p2,
    solve_p_lt_1,
    solve_symmetric,
    symmetric_ball,
)
from isodense.cli import main
from isodense.density import radial_mass_inverse
from isodense.numerics import NumericError
from isodense.radial import symmetric_ball_batch

RTOL = 1e-12
masses = st.floats(1e-200, 1e200)
offsets = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
exponents = st.floats(0.05, 8.0)
dims = st.sampled_from([Dimension(2), Dimension(3)])


def _ball_mass(p, a, d, R):
    k = Dimension(d).k_d
    return k * R ** d * (R ** p / (p + d) + a / d)


def _interval_resid(p, a, sol, M0):
    return abs(mass1d(Density(p, a), Interval(sol.alpha, sol.beta)) - M0) / M0


@settings(max_examples=100, deadline=None)
@given(exponents, offsets, masses, dims)
def test_symmetric_ball_mass_residual(p, a, M0, dim):
    sol = symmetric_ball(Density(p, a), dim, M0)
    assert abs(_ball_mass(p, a, dim.d, sol.radius) - M0) <= RTOL * M0
    assert abs(sol.mass - M0) <= RTOL * M0


@settings(max_examples=100, deadline=None)
@given(exponents, st.floats(1e150, 1e300), st.floats(1e-300, 1e-150), dims)
def test_tiny_balls_at_huge_offsets_meet_their_mass(p, a, M0, dim):
    # M0*d/a and R**d lie below the float range though R and the mass do not;
    # mass and perimeter are recomputed in exact rational arithmetic
    sol = symmetric_ball(Density(p, a), dim, M0)
    R, d, k = Fraction(sol.radius), dim.d, Fraction(dim.k_d)
    Rp = Fraction(sol.radius ** p)  # below 1e-5, against a >= 1e150
    mass = k * R ** d * (Rp / Fraction(p + d) + Fraction(a) / d)
    assert abs(mass - Fraction(M0)) <= Fraction(RTOL) * Fraction(M0)
    per = k * R ** (d - 1) * (Rp + Fraction(a))
    assert abs(Fraction(sol.perimeter) - per) <= Fraction(RTOL) * per


@settings(max_examples=100, deadline=None)
@given(exponents, offsets, st.floats(1e307, 1.7e308), st.sampled_from([1, 2, 3]))
def test_inverse_at_huge_masses_meets_its_mass(p, a, m, d):
    # m*(p+d), and m*d/a at small a, lie past the float range though the
    # root does not: the Newton start once was inf, and the root inf or NaN
    R = float(radial_mass_inverse(p, a, m, d))
    assert abs(R ** d * (R ** p / (p + d) + a / d) - m) <= RTOL * m


def test_inverse_past_the_float_range_is_a_numeric_failure():
    # G_1(R) = 1.7e308 at p = 1e-3 needs R above 1.8e308
    with pytest.raises(NumericError):
        radial_mass_inverse(1e-3, 0.5, 1.7e308)
    with pytest.raises(NumericError):
        radial_mass_inverse(1e-3, np.array([0.5, 1e300]), 1.7e308)


@settings(max_examples=50, deadline=None)
@given(exponents, st.lists(offsets, min_size=1, max_size=6), masses, dims, st.data())
def test_symmetric_ball_batch_row_equals_one_ball(p, avals, M0, dim, data):
    k = data.draw(st.integers(0, len(avals) - 1))
    assert symmetric_ball_batch(p, dim, avals, M0)[k] == symmetric_ball(
        Density(p, avals[k]), dim, M0)


@settings(max_examples=100, deadline=None)
@given(offsets, masses, st.sampled_from([solve_2d_p2, solve_3d_p2]))
def test_p2_balls_mass_residual(a, M0, solve):
    sol = solve(a, M0)
    if sol.center_offset == 0.0:
        mass = _ball_mass(2.0, a, sol.dim.d, sol.radius)
    else:
        offcentre = offcenter_p2_2d if sol.dim.d == 2 else offcenter_p2_3d
        mass = offcentre(sol.radius, sol.center_offset, a)[1]
    assert abs(mass - M0) <= RTOL * M0
    assert abs(sol.mass - M0) <= RTOL * M0


@settings(max_examples=100, deadline=None)
@given(offsets, masses)
def test_solve_p2_mass_residual(a, M0):
    assert _interval_resid(2.0, a, solve_p2(a, M0), M0) <= RTOL


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, 8.0, exclude_min=True), offsets, masses)
def test_solve_symmetric_mass_residual(p, a, M0):
    assert _interval_resid(p, a, solve_symmetric(Density(p, a), M0), M0) <= RTOL


@settings(max_examples=60, deadline=None)
@given(exponents, offsets, masses)
def test_solve_general_mass_residual(p, a, M0):
    assert _interval_resid(p, a, solve_general(Density(p, a), M0), M0) <= RTOL


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 1.0, exclude_max=True), offsets, masses)
def test_solve_p_lt_1_mass_residual(p, a, M0):
    assert _interval_resid(p, a, solve_p_lt_1(Density(p, a), M0), M0) <= RTOL


@settings(max_examples=100, deadline=None)
@given(offsets, masses)
def test_solve_p1_mass_residual(a, M0):
    assert _interval_resid(1.0, a, solve_p1(a, M0), M0) <= RTOL


@pytest.mark.parametrize("solve", [solve_p1, solve_p2, solve_2d_p2, solve_3d_p2])
@pytest.mark.parametrize("a", [-1.0, float("nan"), float("inf")])
def test_p1_and_p2_solvers_reject_a_bad_offset(solve, a):
    # the p = 2 solvers take max(a, a_crit), which would hide a negative a
    with pytest.raises(ValueError):
        solve(a, 1.0)


# name: (exponents, d, radius or right end of the solver's answer)
_RADII = {
    "symmetric_ball d=2": (exponents, 2,
                           lambda p, a, M: symmetric_ball(Density(p, a), Dimension(2), M).radius),
    "symmetric_ball d=3": (exponents, 3,
                           lambda p, a, M: symmetric_ball(Density(p, a), Dimension(3), M).radius),
    "solve_2d_p2": (st.just(2.0), 2, lambda p, a, M: solve_2d_p2(a, M).radius),
    "solve_3d_p2": (st.just(2.0), 3, lambda p, a, M: solve_3d_p2(a, M).radius),
    "solve_symmetric": (st.floats(1.0, 8.0, exclude_min=True), 1,
                        lambda p, a, M: solve_symmetric(Density(p, a), M).beta),
    "solve_p_lt_1": (st.floats(0.05, 1.0, exclude_max=True), 1,
                     lambda p, a, M: solve_p_lt_1(Density(p, a), M).beta),
    "solve_p1": (st.just(1.0), 1, lambda p, a, M: solve_p1(a, M).beta),
}


@pytest.mark.parametrize("name", list(_RADII))
@settings(max_examples=60, deadline=None)
@given(a=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), M0=st.floats(1e-100, 1e100),
       data=st.data())
def test_radius_follows_the_mass_scaling(name, a, M0, data):
    exps, d, radius = _RADII[name]
    p = data.draw(exps)
    scaled = radius(p, a * M0 ** (-p / (p + d)), 1.0)
    assert radius(p, a, M0) == pytest.approx(M0 ** (1.0 / (p + d)) * scaled, rel=RTOL)


any_float = st.one_of(st.floats(), st.floats(1e-300, 1e300), st.sampled_from([0.5, 1.0, 2.0, 4.0]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["1", "2", "3"]), any_float, any_float, any_float, st.booleans())
def test_random_solve_vectors_never_print_a_traceback(dim, p, a, mass, force):
    argv = ["solve", "--dim", dim, "--p", repr(p), "--a", repr(a), "--mass", repr(mass)]
    if force and dim == "1":
        argv.append("--force-numeric")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["dim"] == int(dim)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["1", "2", "3"]), any_float, st.none() | any_float, st.none() | any_float)
def test_random_acrit_vectors_never_print_a_traceback(dim, p, mass, a):
    # --flag=value, so argparse reads a negative value as a value, not an option
    argv = ["acrit", f"--p={p!r}", "--dim", dim]
    argv += [f"{flag}={value!r}" for flag, value in (("--mass", mass), ("--a", a))
             if value is not None]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:  # every printed number is finite: none prints as null
        assert None not in json.loads(out.getvalue()).values()
    elif code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1


def _run_fuzzed(argv):
    """(exit code, stdout, stderr) of one CLI run, checked for the properties every run has."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
    return code, out.getvalue(), err.getvalue()


def _check_csv(text, rows):
    assert len(text.splitlines()) == rows + 1  # the header, then the rows
    assert "nan" not in text and "inf" not in text  # no header or branch name holds either


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["1", "2", "3"]), any_float, any_float, any_float, any_float,
       st.integers(2, 40))
def test_random_sweep_vectors_never_print_a_traceback(dim, p, mass, a_min, a_max, steps):
    argv = ["sweep", "--dim", dim, f"--p={p!r}", f"--mass={mass!r}", f"--a-min={a_min!r}",
            f"--a-max={a_max!r}", "--steps", str(steps)]
    code, out, _ = _run_fuzzed(argv)
    if code == 0:
        _check_csv(out, steps)


@settings(max_examples=300, deadline=None)
@given(any_float, any_float, any_float, st.integers(2, 30))
def test_random_contour_vectors_never_print_a_traceback(p, a, mass, grid):
    argv = ["contour", f"--p={p!r}", f"--a={a!r}", f"--mass={mass!r}", "--grid", str(grid)]
    code, out, _ = _run_fuzzed(argv)
    if code == 0:
        _check_csv(out, grid * grid)


# the spectral start does not certify at a = 0 for p >= 16, nor at any a for p >= 1e4
@pytest.mark.uncertified_start
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]), any_float, any_float, any_float, st.integers(0, 3))
def test_random_evolve_vectors_never_print_a_traceback(dim, p, a, mass, iters):
    vertices = 64 if dim == 2 else 33
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        argv = ["evolve", "--dim", str(dim), f"--p={p!r}", f"--a={a!r}", f"--mass={mass!r}",
                "--vertices", str(vertices), "--iters", str(iters), "--out", str(path)]
        code, out, _ = _run_fuzzed(argv)
        if code == 0:
            assert json.loads(out)["dim"] == dim
            # in 3D the curve is the profile of n nodes and its mirror image: 2(n - 1) vertices
            _check_csv(path.read_text(), vertices if dim == 2 else 2 * (vertices - 1))
