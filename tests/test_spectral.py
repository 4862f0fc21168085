"""The spectral Newton-KKT boundary solver and the evolver's start from it."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isodense.evolver as ev
import isodense.spectral as sp
from isodense import Density, Dimension, PolyCurve, solve_2d_p2, solve_3d_p2, symmetric_ball
from isodense.spectral import spectral_2d, spectral_3d_axisym

# Converged p = 4, a = 0.1, M = 1 optima: node counts 17-65 (2D) and 12-32
# (3D) agree to 1e-12.  The polygon evolver sits below both (O(h^2) bias).
P4_REF = {2: 5.012386458629, 3: 6.54363266353}
SOLVERS = {2: (spectral_2d, solve_2d_p2), 3: (spectral_3d_axisym, solve_3d_p2)}


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("a", [0.0, 0.1, 0.2, 1.0])  # a = 1 is on the centred branch
def test_p2_matches_the_closed_forms(d, a):
    spectral, closed = SOLVERS[d]
    opt = spectral(Density(2.0, a), 1.0)
    ref = closed(a, 1.0)
    assert opt.certified
    assert opt.residual <= sp.KKT_RTOL
    assert _rel(opt.perimeter, ref.perimeter) <= 1e-12
    assert _rel(opt.mass, 1.0) <= 1e-12
    # the boundary is the closed form's circle or sphere, to first order in
    # the residual (the perimeter is second order)
    phi = np.linspace(0.0, math.pi, 50)
    r = opt.radius(phi)[0]
    x = opt.center + r * np.cos(phi) - ref.center_offset
    y = r * np.sin(phi)
    assert np.max(np.abs(np.hypot(x, y) - ref.radius)) <= 1e-6 * ref.radius


@pytest.mark.parametrize("d, counts", [(2, (17, 25, 33)), (3, (16, 24, 32))])
def test_p4_reproduces_the_references_at_three_node_counts(d, counts):
    spectral = SOLVERS[d][0]
    for nodes in counts:
        opt = spectral(Density(4.0, 0.1), 1.0, nodes=nodes)
        assert opt.certified, nodes
        assert _rel(opt.perimeter, P4_REF[d]) <= 1e-10, (nodes, opt.perimeter)
        # the optimum is off-centre: it beats the centred ball by far
        ball = symmetric_ball(Density(4.0, 0.1), Dimension(d), 1.0).perimeter
        assert opt.perimeter < ball * (1.0 - 1e-3)


def _through_origin(d, p):
    """Perimeter of the ball through the origin with unit mass under r**p (a = 0).

    The minimizers at a = 0 (Dahlberg, Dubbs, Newkirk & Tran, NYJM 16, 2010,
    in the plane; Boyer et al., Anal. Geom. Metr. Spaces 4, 2016, in R^n).
    With I(q) = sqrt(pi) Gamma((q+1)/2) / Gamma(q/2+1), the ball of radius R
    has P = 2R (2R)**p I(p) and M = (2R)**(p+2) I(p+2) / (p+2) in 2D, and
    P = 8 pi R**2 (2R)**p / (p+2) and M = 2 pi (2R)**(p+3) / ((p+3)(p+4)) in 3D.
    """
    def I(q):
        return math.sqrt(math.pi) * math.gamma((q + 1) / 2) / math.gamma(q / 2 + 1)
    if d == 2:
        R = 0.5 * ((p + 2) / I(p + 2)) ** (1 / (p + 2))
        return 2 * R * (2 * R) ** p * I(p)
    R = 0.5 * ((p + 3) * (p + 4) / (2 * math.pi)) ** (1 / (p + 3))
    return 8 * math.pi * R * R * (2 * R) ** p / (p + 2)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_a0_even_p_matches_the_ball_through_the_origin(d, p):
    opt = SOLVERS[d][0](Density(p, 0.0), 1.0)
    assert opt.certified
    assert _rel(opt.perimeter, _through_origin(d, p)) <= 1e-12
    assert _rel(opt.mass, 1.0) <= 1e-12


@pytest.mark.parametrize("d, counts", [(2, (17, 33, 65)), (3, (24, 48))])
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_a0_small_p_converges_from_above(d, counts, p):
    # |x|**p is not smooth where the boundary meets the origin, so the series
    # converges algebraically; each discrete optimum lies above the true one
    ref = _through_origin(d, p)
    errs = [(SOLVERS[d][0](Density(p, 0.0), 1.0, nodes=K).perimeter - ref) / ref for K in counts]
    assert all(e > 0.0 for e in errs), errs
    assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:])), errs


def test_a0_boundary_is_the_disc_on_a_fine_polygon():
    # the certified p = 4 boundary re-evaluated on an independent grid: a
    # quadrature that cannot see its high modes reports a perimeter that the
    # boundary itself does not have
    dens = Density(4.0, 0.0)
    V = spectral_2d(dens, 1.0).sample(65536)
    g = ev._Geometry(V, 2)
    assert abs(ev._functional(dens, g) - _through_origin(2, 4.0)) <= 1e-6
    assert abs(ev._fan_mass(dens, g) - 1.0) <= 1e-6


@pytest.mark.parametrize("d", [2, 3])
def test_every_offset_certifies_at_the_default_nodes(d):
    missed = [(p, a) for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)
              for a in (0.0, 0.05, 0.1, 0.2, 0.3, 1.0, 100.0)
              if not SOLVERS[d][0](Density(p, a), 1.0).certified]
    assert missed == []


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), p=st.sampled_from([2.0, 4.0]),
       a=st.floats(1e-3, 1.0), log_mass=st.floats(-100.0, 100.0))
def test_scaled_solve_meets_its_mass(d, p, a, log_mass):
    M0 = 10.0 ** log_mass
    opt = SOLVERS[d][0](Density(p, a), M0)
    # the mass of the returned boundary, evaluated at its own scale
    z = opt.coeffs.copy()
    z[1] = opt.center  # the solver's unknowns: the centre replaces the first-degree term
    parts = sp._values(sp._nodes(d, 17 if d == 2 else 24), p, z)
    assert _rel(parts[2] + a * parts[3], M0) <= 1e-12
    assert np.min(opt.radius(np.linspace(0.0, 2.0 * math.pi, 400))[0]) > 0.0
    assert opt.certified


@pytest.mark.parametrize("N", [33, 65])
def test_2d_rows_are_the_cosine_modes(N):
    # cos(k*phi) = T_k(cos phi): the Chebyshev rows are the cosine basis at
    # phi_j = arccos t_j, and d/dphi = -sin(phi) * d/dt turns the r' rows
    # into its derivative
    nodes = sp._nodes(2, N)
    phi = np.arccos(nodes.t)
    k = np.arange(N)
    r_rows, dr_rows, c_rows = nodes.basis
    cos, dcos = np.cos(np.outer(phi, k)), -k * np.sin(np.outer(phi, k))
    cos[:, 1] = dcos[:, 1] = 0.0  # the first-degree column carries the centre
    assert np.max(np.abs(r_rows - cos)) <= 1e-13
    # column k is k times a function of unit size: compare it at that scale
    assert np.max(np.abs(-np.sin(phi)[:, None] * dr_rows - dcos) / np.maximum(k, 1)) <= 1e-13
    assert np.array_equal(c_rows[:, 1], np.ones(N)) and not c_rows[:, k != 1].any()


@pytest.mark.parametrize("N", [33, 65])
def test_2d_radius_is_the_cosine_sum(N):
    opt = spectral_2d(Density(4.0, 0.1), 1.0, nodes=N)
    phi = np.linspace(0.0, 2.0 * math.pi, 400)
    k = np.arange(len(opt.coeffs))
    r, r_phi = opt.radius(phi)
    assert np.max(np.abs(r - np.cos(np.outer(phi, k)) @ opt.coeffs)) <= 1e-14
    assert np.max(np.abs(r_phi + np.sin(np.outer(phi, k)) @ (k * opt.coeffs))) <= 1e-14


def test_node_counts_are_checked():
    for spectral in (spectral_2d, spectral_3d_axisym):
        with pytest.raises(ValueError):
            spectral(Density(2.0, 0.1), 1.0, nodes=3)
    with pytest.raises(ValueError):
        spectral_2d(Density(2.0, 0.1), math.nan)


@pytest.mark.parametrize("d, n", [(2, 256), (3, 129)])
def test_samples_lie_on_the_boundary_equally_spaced(d, n):
    opt = SOLVERS[d][0](Density(4.0, 0.1), 1.0)
    V = opt.sample(n)
    assert V.shape == (n, 2)
    phi = np.arctan2(V[:, 1], V[:, 0] - opt.center)
    r = np.hypot(V[:, 0] - opt.center, V[:, 1])
    assert np.max(np.abs(r - opt.radius(np.mod(phi, 2.0 * math.pi))[0])) <= 1e-12
    seg = np.hypot(*np.diff(np.vstack([V, V[:1]]) if d == 2 else V, axis=0).T)
    assert np.max(seg) / np.min(seg) < 1.001
    if d == 3:
        assert V[0, 1] == 0.0 and V[-1, 1] == 0.0 and V[0, 0] > V[-1, 0]


class _Started(Exception):
    """Raised by a patched _drive: the run's start is all a test needs."""


def _capture_start(monkeypatch):
    """Patch the evolver's descent to record its start and stop the run."""
    starts = []

    def drive(dens, g, *args):
        starts.append(g.V.copy())
        raise _Started

    monkeypatch.setattr(ev, "_drive", drive)
    return starts


def _record_solves(monkeypatch):
    """Wrap the evolver's spectral solves; returns the list of their results."""
    results = []
    for name in ("spectral_2d", "spectral_3d_axisym"):
        def wrapper(*args, _solve=getattr(ev, name)):
            results.append(_solve(*args))
            return results[-1]
        monkeypatch.setattr(ev, name, wrapper)
    return results


@pytest.mark.uncertified_start
def test_uncertified_solve_starts_from_the_circle(monkeypatch):
    # at p = 4, a = 0.1 and M0 = 1e-300 the unit-mass problem, which the
    # run solves, has offset 1e199: the start circle's r**p part of the
    # mass, of order R**6 ~ 1e-600, underflows, and the solve does not
    # certify.  The run starts from that problem's circle
    dens, M0, n = Density(4.0, 0.1), 1e-300, 128
    results = _record_solves(monkeypatch)
    starts = _capture_start(monkeypatch)
    with pytest.raises(_Started):
        ev.evolve_2d(dens, M0, n=n)
    assert not results[0].certified
    unit = Density(4.0, sp._unit_offset(dens, M0, 2))
    assert unit.a == pytest.approx(1e199, rel=1e-12)
    R = symmetric_ball(unit, Dimension(2), 1.0).radius
    circle = PolyCurve.circle(R, center=(0.5 * R, 0.0), n=n).vertices
    assert np.array_equal(starts[0], circle)


@pytest.mark.uncertified_start
def test_uncertified_residual_starts_from_the_circle(monkeypatch):
    # p = 2, a = 0.2 certifies; with the bound made unreachable it must not
    monkeypatch.setattr(sp, "KKT_RTOL", 0.0)
    starts = _capture_start(monkeypatch)
    dens, n = Density(2.0, 0.2), 64
    for evolve in (ev.evolve_2d, ev.evolve_3d_axisym):
        with pytest.raises(_Started):
            evolve(dens, 1.0, n=n)
    R2 = symmetric_ball(dens, Dimension(2), 1.0).radius
    c2 = math.sqrt(R2 * R2 - 0.2)
    assert np.array_equal(starts[0], PolyCurve.circle(R2, center=(c2, 0.0), n=n).vertices)
    R3 = symmetric_ball(dens, Dimension(3), 1.0).radius
    assert np.max(np.abs(np.hypot(starts[1][:, 0] - math.sqrt(R3 * R3 - 0.2),
                                  starts[1][:, 1]) - R3)) <= 1e-15


def test_certified_solve_is_the_start(monkeypatch):
    starts = _capture_start(monkeypatch)
    dens = Density(4.0, 0.1)
    with pytest.raises(_Started):
        ev.evolve_2d(dens, 1.0, n=128)
    with pytest.raises(_Started):
        ev.evolve_3d_axisym(dens, 1.0, n=65)
    assert np.array_equal(starts[0], spectral_2d(dens, 1.0).sample(128))
    assert np.array_equal(starts[1], spectral_3d_axisym(dens, 1.0).sample(65))


@pytest.mark.parametrize("seed", [1, 2, 3, 4242])
def test_benchmark_evolver_runs_start_certified(monkeypatch, seed):
    # the conftest spy fails this test if an operation starts uncertified
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    starts = _capture_start(monkeypatch)
    results = _record_solves(monkeypatch)
    ops = [op for w in ("evolve2d", "evolve3d") for op in workloads.build(w, seed).ops]
    for op in ops:
        with pytest.raises(_Started):
            op.run("")
    assert len(starts) == len(ops) == 5
    assert [opt.certified for opt in results] == [True] * 5
