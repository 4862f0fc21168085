import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from isodense import (
    Density,
    EvolveReport,
    PolyCurve,
    evolve_2d,
    evolve_3d_axisym,
    isoperimetric_quotient,
    offcenter_p2_2d,
    solve_2d_p2,
    solve_3d_p2,
    symmetric_ball,
    weighted_mass_2d,
    weighted_perimeter_2d,
)
from isodense import Dimension
import isodense.evolver as ev
from isodense.evolver import (
    _mass,
    _mass_grad,
    _perimeter,
    _perimeter_grad,
    _project_mass,
    _project_mass_rev,
    _resample_closed,
    _rev_area,
    _rev_area_grad,
    _rev_mass,
    _rev_mass_grad,
    _rev_step,
    descent_step,
)


def _wobbly_curve(n=64, seed=0, center=(0.15, -0.1)):
    rng = np.random.default_rng(seed)
    theta = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    r = 1.0 + 0.10 * np.sin(3 * theta) + 0.06 * np.cos(5 * theta) \
        + 0.02 * rng.standard_normal(n)
    return np.column_stack([center[0] + r * np.cos(theta),
                            center[1] + r * np.sin(theta)])


def _wobbly_profile():
    th = np.linspace(0.0, math.pi, 33)
    W = np.column_stack([0.3 + 0.8 * np.cos(th) + 0.05 * np.sin(2 * th),
                         0.8 * np.sin(th) * (1.0 + 0.1 * np.cos(3 * th))])
    W[0, 1] = W[-1, 1] = 0.0
    return W


def _benchmark_tracing(monkeypatch):
    """perfbench/tracing.py, the benchmark's per-layer instrumentation."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    return tracing


def test_polycurve_validation():
    with pytest.raises(ValueError):
        PolyCurve(np.zeros((8, 2)))
    # clockwise ordering rejected
    theta = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    cw = np.column_stack([np.cos(-theta), np.sin(-theta)])
    with pytest.raises(ValueError):
        PolyCurve(cw)
    # bowtie-like fold is not star-shaped
    folded = np.column_stack([np.cos(theta), np.sin(theta)])
    folded[5] = [2.5, 2.5]
    with pytest.raises(ValueError):
        PolyCurve(folded)
    # duplicated closing vertex is dropped
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    c = PolyCurve(np.vstack([circle, circle[:1]]))
    assert c.n == 32


def test_weighted_perimeter_unit_circle_polygons():
    c = PolyCurve.circle(1.0, n=256)
    assert weighted_perimeter_2d(Density(2, 0), c) == pytest.approx(
        2 * math.pi, rel=5e-4)
    assert weighted_perimeter_2d(Density(2, 1), c) == pytest.approx(
        4 * math.pi, rel=5e-4)
    # converges at second order in edge length
    err = [abs(weighted_perimeter_2d(Density(2, 0), PolyCurve.circle(1.0, n=n)) - 2 * math.pi)
           for n in (64, 128, 256)]
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.1)
    assert err[1] / err[2] == pytest.approx(4.0, rel=0.1)


def test_weighted_mass_unit_circle_polygons():
    c = PolyCurve.circle(1.0, n=256)
    assert weighted_mass_2d(Density(2, 0), c) == pytest.approx(math.pi / 2, rel=1e-3)
    for p, a in [(0.5, 0.3), (2.0, 1.0), (3.0, 0.0)]:
        expected = a * math.pi + 2 * math.pi / (p + 2)
        assert weighted_mass_2d(Density(p, a), c) == pytest.approx(expected, rel=1e-3)


def test_functionals_match_offcentre_circle():
    sol = solve_2d_p2(0.2, 1.0)
    dens = Density(2, 0.2)
    c = PolyCurve.circle(sol.radius, center=(sol.center_offset, 0.0), n=512)
    per, mass = offcenter_p2_2d(sol.radius, sol.center_offset, 0.2)
    assert weighted_perimeter_2d(dens, c) == pytest.approx(per, rel=5e-3)
    assert weighted_mass_2d(dens, c) == pytest.approx(mass, rel=2e-3)


def test_mass_fan_handles_region_not_containing_origin():
    dens = Density(1.3, 0.4)
    c = PolyCurve.circle(0.5, center=(2.0, 1.0), n=128)
    from isodense import gauss_legendre
    # radial moment of an offset disk via 2D polar quadrature about its centre
    def ring(q):
        vals = []
        for qi in np.atleast_1d(q):
            f = lambda t: ((qi ** 2 + 5.0 + 2 * qi * math.sqrt(5.0) * np.cos(t)) ** (dens.p / 2))
            vals.append(qi * gauss_legendre(f, -math.pi, math.pi, 64))
        return np.array(vals)
    oracle = gauss_legendre(ring, 0.0, 0.5, 64) + dens.a * math.pi * 0.25
    assert weighted_mass_2d(dens, c) == pytest.approx(oracle, rel=1e-3)


def test_degenerate_edge_rejected():
    theta = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    V = np.column_stack([np.cos(theta), np.sin(theta)])
    V[4] = V[5]
    curve = PolyCurve.__new__(PolyCurve)
    curve._V = V
    with pytest.raises(ValueError):
        weighted_perimeter_2d(Density(2, 0.1), curve)


def test_analytic_gradients_match_finite_differences():
    for seed in range(3):
        V = _wobbly_curve(seed=seed)
        dens = Density(1.5 + 0.7 * seed, 0.2 * seed)

        def fd(f):
            G = np.zeros_like(V)
            h = 1e-6
            for i in range(len(V)):
                for j in range(2):
                    Vp = V.copy(); Vp[i, j] += h
                    Vm = V.copy(); Vm[i, j] -= h
                    G[i, j] = (f(Vp) - f(Vm)) / (2 * h)
            return G

        _, gP = _perimeter_grad(dens, V)
        _, gM = _mass_grad(dens, V)
        gP_fd = fd(lambda W: _perimeter(dens, W))
        gM_fd = fd(lambda W: _mass(dens, W))
        assert np.max(np.abs(gP - gP_fd)) / np.max(np.abs(gP_fd)) < 1e-5
        assert np.max(np.abs(gM - gM_fd)) / np.max(np.abs(gM_fd)) < 1e-5


def test_rev_gradients_match_finite_differences():
    m = 33
    th = np.linspace(0.0, math.pi, m)
    W = np.column_stack([0.2 + 0.8 * np.cos(th) + 0.05 * np.sin(2 * th),
                         0.8 * np.sin(th)])
    W[0, 1] = W[-1, 1] = 0.0
    dens = Density(1.8, 0.3)

    def fd(f):
        G = np.zeros_like(W)
        h = 1e-6
        for i in range(len(W)):
            for j in range(2):
                Wp = W.copy(); Wp[i, j] += h
                Wm = W.copy(); Wm[i, j] -= h
                G[i, j] = (f(Wp) - f(Wm)) / (2 * h)
        return G

    _, gS = _rev_area_grad(dens, W)
    _, gM = _rev_mass_grad(dens, W)
    assert np.max(np.abs(gS - fd(lambda X: _rev_area(dens, X)))) \
        / np.max(np.abs(gS)) < 1e-5
    assert np.max(np.abs(gM - fd(lambda X: _rev_mass(dens, X)))) \
        / np.max(np.abs(gM)) < 1e-5


def test_descent_steps_monotone_and_mass_conserving():
    dens = Density(2, 0.3)
    M0 = 1.0
    V = _wobbly_curve(n=96, seed=4, center=(0.3, 0.0))
    V = _project_mass(dens, V, M0)
    per = _perimeter(dens, V)
    steps = [0.0, 0.0, 0.0]
    for _ in range(120):
        E = np.roll(V, -1, axis=0) - V
        step0 = 0.1 * float(np.mean(np.hypot(E[:, 0], E[:, 1])))
        V2, per2, accepted = descent_step(dens, V, M0, per, step0, steps)
        if accepted:
            assert per2 <= per + 1e-12
            assert abs(_mass(dens, V2) - M0) <= 1e-8 * M0
        V, per = V2, per2

    # the axisymmetric profile: the poles must stay exactly on the axis
    W = _project_mass_rev(dens, _wobbly_profile(), M0)
    area = _rev_area(dens, W)
    steps = [0.0, 0.0, 0.0]
    moves = 0
    for _ in range(60):
        step0 = 0.1 * float(np.mean(np.hypot(np.diff(W[:, 0]), np.diff(W[:, 1]))))
        W2, area2, accepted = _rev_step(dens, W, M0, area, step0, steps)
        assert W2[0, 1] == 0.0 and W2[-1, 1] == 0.0
        if accepted:
            moves += 1
            assert area2 <= area + 1e-12
            assert abs(_rev_mass(dens, W2) - M0) <= 1e-8 * M0
        W, area = W2, area2
    assert moves > 0


def _uphill(dens, X, functional_grad, mass_grad, pin):
    """+grad(P) with its grad(M) component removed: the reverse of _descend's field."""
    gP = pin(functional_grad(dens, X)[1])
    gM = pin(mass_grad(dens, X)[1])
    return ev._unit(gP - float(np.sum(gP * gM) / np.sum(gM * gM)) * gM)


def test_failed_line_search_keeps_state_and_remembers_its_smallest_trial(monkeypatch):
    # every trial uphill along the constraint is rejected, down to the
    # floor of 1e-14 of the state's extent; the next search along the
    # direction starts near there
    dens, M0, step0 = Density(2, 0.3), 1.0, 0.01
    V = _project_mass(dens, _wobbly_curve(n=96, seed=4, center=(0.3, 0.0)), M0)
    W = _project_mass_rev(dens, _wobbly_profile(), M0)
    cases = [("_try_direction", V, _perimeter(dens, V),
              _uphill(dens, V, _perimeter_grad, _mass_grad, lambda g: g)),
             ("_try_direction_rev", W, _rev_area(dens, W),
              _uphill(dens, W, _rev_area_grad, _rev_mass_grad, ev._pin_poles))]
    for name, X, per, dhat in cases:
        Y, per2, step, memory = getattr(ev, name)(dens, X, M0, per, dhat, step0, None)
        floor = 1e-14 * float(np.max(np.abs(X)))
        assert Y is X and per2 == per and step == 0.0, name
        assert 0.0 < memory <= 2.0 * floor, name
        assert ev._first_trial(step0, memory) == 2.0 * memory

    # the benchmark reads the third element as "accepted"
    tracing = _benchmark_tracing(monkeypatch)
    tracer = tracing.Tracer()
    hooks = tracing.Instrumentation(tracer)
    hooks.install()
    try:
        for name, X, per, dhat in cases:
            getattr(ev, name)(dens, X, M0, per, dhat, step0, None)
    finally:
        hooks.remove()
    assert tracer.counts["evolver.linesearch"] == 2
    assert tracer.counts["evolver.linesearch_accepted"] == 0


def test_line_search_floor_is_relative_to_the_curve(monkeypatch):
    # an absolute floor (1e-14 * (max|V| + 1)) lies above every first trial
    # once the curve is tiny: the run then made no trial at all, projected
    # only once, and still reported convergence
    calls = _count_calls(monkeypatch, "_project_mass")
    M0 = 1e-24
    report = evolve_2d(Density(4, 0.1), M0, n=256)
    assert calls[0] > 1
    assert abs(report.weighted_mass - M0) <= 1e-8 * M0
    assert abs(_mass(Density(4, 0.1), report.final_curve.vertices) - M0) <= 1e-8 * M0


def test_resample_preserves_geometry():
    theta = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    r = 1.0 + 0.1 * np.sin(3 * theta)
    V = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    dens = Density(2, 0.4)
    V2 = _resample_closed(V)
    assert len(V2) == len(V)
    assert _perimeter(dens, V2) == pytest.approx(_perimeter(dens, V), rel=1e-3)
    E = np.roll(V2, -1, axis=0) - V2
    L = np.hypot(E[:, 0], E[:, 1])
    assert np.max(L) / np.min(L) < 1.01


def _count_calls(monkeypatch, name):
    """Replace isodense.evolver.<name> by a wrapper; returns its call counter."""
    calls = [0]
    fn = getattr(ev, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(ev, name, counted)
    return calls


def test_evolve_2d_matches_closed_form_small(monkeypatch):
    calls = _count_calls(monkeypatch, "_mass_grad")
    a = 0.2
    report = evolve_2d(Density(2, a), 1.0, n=128, max_iters=1500, tol=1e-9)
    ref = solve_2d_p2(a, 1.0)
    assert report.converged
    assert report.weighted_perimeter == pytest.approx(ref.perimeter, rel=1e-2)
    assert report.center_offset_estimate == pytest.approx(ref.center_offset, rel=0.05)
    assert abs(report.weighted_mass - 1.0) <= 1e-8
    # line searches warm-started per direction: a cold start at a tenth of
    # the mean edge on every search takes 8982 mass-gradient evaluations here
    assert calls[0] <= 8982 * 2 // 3
    # failed searches remember their smallest trial; forgetting it (and
    # starting again at the cap) took 4103 evaluations here
    assert calls[0] <= 4103 // 2


def test_evolve_2d_refinement_convergence():
    a = 0.2
    ref = solve_2d_p2(a, 1.0).perimeter
    p128 = evolve_2d(Density(2, a), 1.0, n=128, max_iters=2500, tol=1e-9)
    p256 = evolve_2d(Density(2, a), 1.0, n=256, max_iters=2500, tol=1e-9)
    p512 = evolve_2d(Density(2, a), 1.0, n=512, max_iters=2500, tol=1e-9)
    assert abs(p256.weighted_perimeter - p512.weighted_perimeter) \
        / p512.weighted_perimeter < 2e-3
    assert p512.weighted_perimeter == pytest.approx(ref, rel=1e-3)
    # the generalized-curvature spread tightens monotonically with resolution
    assert p512.curvature_spread < p256.curvature_spread < p128.curvature_spread
    assert p512.curvature_spread < 1e-2


def test_evolve_2d_rejects_bad_input():
    with pytest.raises(ValueError):
        evolve_2d(Density(2, 0.2), -1.0)
    with pytest.raises(ValueError):
        evolve_2d(Density(2, 0.2), 1.0, n=32)


@pytest.mark.parametrize("evolve", [evolve_2d, evolve_3d_axisym])
@pytest.mark.parametrize("budget", [{"max_iters": -5}, {"tol": math.nan}, {"tol": math.inf},
                                    {"tol": -1e-9}], ids=str)
def test_evolvers_reject_bad_budget(evolve, budget):
    with pytest.raises(ValueError):
        evolve(Density(2, 0.2), 1.0, n=64, **budget)


def test_evolvers_accept_zero_iterations():
    for evolve in (evolve_2d, evolve_3d_axisym):
        report = evolve(Density(2, 0.2), 1.0, n=64, max_iters=0, tol=0.0)
        assert report.iterations == 0 and not report.converged
        assert abs(report.weighted_mass - 1.0) <= 1e-8


def test_tiny_curve_keeps_every_vertex_and_its_mass():
    # the closing-vertex test is relative to the curve's extent, here ~1e-5
    report = evolve_2d(Density(4, 0.1), 1e-20, n=64, max_iters=0)
    V = report.final_curve.vertices
    assert len(V) == 64
    assert abs(_mass(Density(4, 0.1), V) - 1e-20) <= 1e-8 * 1e-20
    assert abs(report.weighted_mass - 1e-20) <= 1e-8 * 1e-20
    closed = np.vstack([V, V[:1]])
    assert PolyCurve(closed, validate=False).n == 64


def test_isoperimetric_quotient():
    c = PolyCurve.circle(0.8, n=512)
    rep = EvolveReport(
        final_curve=c, weighted_perimeter=0.0, weighted_mass=0.0,
        unweighted_perimeter=c.unweighted_perimeter(),
        unweighted_area=c.unweighted_area(), iterations=0, converged=True,
        curvature_spread=0.0, radius_estimate=0.8, center_offset_estimate=0.0)
    q = isoperimetric_quotient(rep)
    assert q == pytest.approx(1.0, abs=1e-4)
    assert q > 1.0  # polygon deficit
    rep.unweighted_perimeter = 2 * math.pi * 0.8
    rep.unweighted_area = math.pi * 0.64
    assert isoperimetric_quotient(rep) == pytest.approx(1.0, rel=1e-14)


def test_evolve_3d_matches_closed_form_small(monkeypatch):
    calls = _count_calls(monkeypatch, "_rev_mass_grad")
    report = evolve_3d_axisym(Density(2, 0.3), 1.0, n=65, max_iters=1500, tol=1e-9)
    ref = solve_3d_p2(0.3, 1.0)
    assert report.converged
    assert report.weighted_perimeter == pytest.approx(ref.perimeter, rel=2e-2)
    assert report.center_offset_estimate == pytest.approx(ref.center_offset, rel=0.1)
    assert abs(report.weighted_mass - 1.0) <= 1e-8
    # cold-started line searches take 9904 mass-gradient evaluations here
    assert calls[0] <= 9904 * 2 // 3
    # without the memory of failed searches: 5573
    assert calls[0] <= 5573 // 2


@pytest.mark.parametrize("evolve, n, grad, normals, project, search, descend", [
    (evolve_2d, 64, "_mass_grad", "_vertex_normals", "_project_mass", "_try_direction",
     "descent_step"),
    (evolve_3d_axisym, 33, "_rev_mass_grad", "_profile_normals", "_project_mass_rev",
     "_try_direction_rev", "_rev_step"),
], ids=["2d", "3d"])
def test_line_search_projections_take_no_mass_gradient(monkeypatch, evolve, n, grad, normals,
                                                       project, search, descend):
    # _descend takes one mass gradient and one set of normals per iteration
    # and hands them to the line searches, whose projections take chord
    # steps with them; only the projections outside a search (the start,
    # each resample) take Newton steps, each with a fresh gradient and
    # normals
    inside = []  # names of the wrapped calls in progress
    counts = {}

    def wrap(name):
        fn = getattr(ev, name)

        def counted(*args):
            key = (name, search in inside, project in inside)
            counts[key] = counts.get(key, 0) + 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(ev, name, counted)

    for name in (grad, normals, project, search, descend, "_resample_closed",
                 "_resample_profile"):
        wrap(name)
    report = evolve(Density(2.0, 0.2), 1.0, n=n, max_iters=150)
    resamples = (counts.get(("_resample_closed", False, False), 0)
                 + counts.get(("_resample_profile", False, False), 0))
    iterations = counts[(descend, False, False)]
    newton_steps = counts.get((normals, False, True), 0)
    assert iterations == report.iterations > 100 and resamples == 1
    assert counts[(project, True, False)] > 0  # every trial projection...
    assert counts.get((grad, True, True), 0) == 0  # ...takes no mass gradient
    assert counts.get((normals, True, True), 0) == 0
    assert newton_steps > 0
    assert counts[(grad, False, False)] == iterations
    assert sum(v for (name, *_), v in counts.items() if name == grad) == iterations + newton_steps


def test_chord_projection_lands_on_the_mass_and_falls_back_to_newton(monkeypatch):
    dens, M0 = Density(4, 0.1), 1.0
    V = _project_mass(dens, _wobbly_curve(n=96, seed=2), M0)
    N = ev._vertex_normals(V)
    slope = float((_mass_grad(dens, V)[1] * N).sum())
    trial = V + 1e-3 * ev._unit(-_perimeter_grad(dens, V)[1])
    assert abs(_mass(dens, trial) - M0) > 1e-6 * M0
    grads = _count_calls(monkeypatch, "_mass_grad")
    cases = [((N, slope), False),  # the iterate's chord: no gradient
             ((N, 0.0), True), ((N, -slope), True),  # no outward chord slope: Newton
             ((N, 0.3 * slope), True)]  # the first chord step overshoots the residual
    for chord, fresh in cases:
        grads[0] = 0
        W = _project_mass(dens, trial, M0, chord)
        assert abs(_mass(dens, W) - M0) <= 1e-10 * M0, chord[1]
        assert (grads[0] > 0) == fresh, chord[1]
    # chord steps that shrink the residual are kept: with a slope 10 % off
    # they converge in seven steps, against three with the iterate's own
    grads[0] = 0
    W = _project_mass(dens, trial, M0, (N, 0.9 * slope))
    assert abs(_mass(dens, W) - M0) <= 1e-10 * M0 and grads[0] == 0


@pytest.mark.parametrize("evolve, dim, n", [(evolve_2d, 2, 64), (evolve_3d_axisym, 3, 33)],
                         ids=["2d", "3d"])
def test_huge_masses_descend_without_overflow(evolve, dim, n):
    # the squared mass gradient overflowed past |gM| ~ 1e154: NaN
    # directions, every search failed and the run stopped after 25 stalls
    # reporting convergence; the density's offset is negligible at both
    # masses, so the runs agree after the exact scaling of r**p
    dens = Density(4, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = evolve(dens, 1e200, n=n)
    ref = evolve(dens, 1e100, n=n)
    assert huge.converged and ref.converged

    def scaled(rep, M):
        length = M ** (1 / (4 + dim))
        return (rep.weighted_perimeter / M ** ((3 + dim) / (4 + dim)),
                rep.radius_estimate / length, rep.center_offset_estimate / length)
    assert scaled(huge, 1e200) == pytest.approx(scaled(ref, 1e100), rel=1e-4)


@pytest.mark.parametrize("M0", [1e-40, pytest.param(1e-300, marks=pytest.mark.uncertified_start)])
def test_radius_estimate_at_tiny_scales(M0):
    # the circle fit dropped its coordinate columns below about 1e-16 of
    # the column of ones and read 11-14 % high
    dens = Density(4, 0.1)
    report = evolve_2d(dens, M0, n=64)
    R = symmetric_ball(dens, Dimension(2), M0).radius
    assert abs(report.radius_estimate / R - 1.0) <= 1e-3  # pytest.approx would add abs=1e-12


def test_evolve_3d_centred():
    report = evolve_3d_axisym(Density(2, 1.0), 1.0, n=65, max_iters=1000, tol=1e-9)
    ref = symmetric_ball(Density(2, 1.0), Dimension(3), 1.0)
    assert report.radius_estimate == pytest.approx(ref.radius, rel=1e-2)
    assert report.center_offset_estimate == pytest.approx(0.0, abs=1e-2)
    assert math.isnan(report.curvature_spread)


def test_evolve_2d_a0_circle_touches_origin():
    rep = evolve_2d(Density(2, 0.0), 1.0, n=256, max_iters=2000, tol=1e-9)
    ref = solve_2d_p2(0.0, 1.0)
    assert rep.weighted_perimeter == pytest.approx(ref.perimeter, rel=1e-6)
    V = rep.final_curve.vertices
    min_r = float(np.min(np.hypot(V[:, 0], V[:, 1])))
    assert min_r < 0.01 * rep.radius_estimate


def test_evolve_2d_p1_offcentre_but_never_at_origin():
    # for p = 1 the centre migrates toward the origin as a grows but the
    # region stays off-centre and slightly non-circular
    r_small = evolve_2d(Density(1, 0.3), 1.0, n=128, max_iters=1500, tol=1e-9)
    r_large = evolve_2d(Density(1, 1.0), 1.0, n=128, max_iters=1500, tol=1e-9)
    assert r_small.converged and r_large.converged
    assert r_small.center_offset_estimate > r_large.center_offset_estimate > 0.05
    assert abs(r_small.weighted_mass - 1.0) <= 1e-8
    assert isoperimetric_quotient(r_small) > 1.0


def test_evolve_3d_a0_sphere_touches_origin():
    # the touching configuration is approached as n grows; at this
    # resolution the discrete optimum sits a few percent off the origin
    report = evolve_3d_axisym(Density(2, 0.0), 1.0, n=129, max_iters=2000, tol=1e-9)
    V = report.final_curve.vertices
    min_r = float(np.min(np.hypot(V[:, 0], V[:, 1])))
    assert min_r < 0.03 * report.radius_estimate
    assert report.weighted_perimeter == pytest.approx(
        8 * math.pi * (15 / (32 * math.pi)) ** 0.8, rel=1e-4)


def test_benchmark_tracer_hooks_see_both_states(monkeypatch):
    # the benchmark's per-layer counters wrap these evolver module attributes;
    # a renamed or bypassed hook reads zero here
    tracing = _benchmark_tracing(monkeypatch)
    runs = (lambda: evolve_2d(Density(2.0, 0.2), 1.0, n=64, max_iters=2),
            lambda: evolve_3d_axisym(Density(2.0, 0.1), 1.0, n=17, max_iters=2))
    for run in runs:
        tracer = tracing.Tracer()
        hooks = tracing.Instrumentation(tracer)
        hooks.install()
        try:
            run()
        finally:
            hooks.remove()
        for key in ("evolver.linesearch", "evolver.projection", "evolver.mass_grad"):
            assert tracer.counts[key] > 0, key
