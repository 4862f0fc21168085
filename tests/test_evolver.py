import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
import isodense.spectral as sp
from isodense.density import critical_offset
from isodense.evolver import (
    _Geometry,
    _descend,
    _fan_mass,
    _fan_mass_grad,
    _functional,
    _functional_grad,
    _project,
    _resample,
)
from quadrature import gauss_legendre


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

        gP = _functional_grad(dens, _Geometry(V, 2))
        gM = _fan_mass_grad(dens, _Geometry(V, 2))
        gP_fd = fd(lambda W: _functional(dens, _Geometry(W, 2)))
        gM_fd = fd(lambda W: _fan_mass(dens, _Geometry(W, 2)))
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

    gS = _functional_grad(dens, _Geometry(W, 3))
    gM = _fan_mass_grad(dens, _Geometry(W, 3))
    assert np.max(np.abs(gS - fd(lambda X: _functional(dens, _Geometry(X, 3))))) \
        / np.max(np.abs(gS)) < 1e-5
    assert np.max(np.abs(gM - fd(lambda X: _fan_mass(dens, _Geometry(X, 3))))) \
        / np.max(np.abs(gM)) < 1e-5


# The row-wise kernels the complex ones replaced, kept as a reference: each
# vector operation runs on (n, 2) rows of (x, y).

def _ref_ends(V, d):
    return (V, np.roll(V, -1, axis=0)) if d == 2 else (V[:-1], V[1:])


def _ref_gather(at_start, at_end, d):
    if d == 2:
        return at_start + np.roll(at_end, 1, axis=0)
    G = np.zeros((len(at_start) + 1, 2))
    G[:-1] += at_start
    G[1:] += at_end
    return G


def _ref_revolution(X, d):
    return (1.0, 0.0, 1.0) if d == 2 else (X[..., 1], np.array([0.0, 1.0]), 2 * math.pi)


def _ref_cross(A, B):
    return A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]


def _ref_perp(X):
    return X[:, ::-1] * np.array([1.0, -1.0])


def _ref_functional(dens, V, d):
    A, B = _ref_ends(V, d)
    E, mid = B - A, 0.5 * (A + B)
    w, _, c = _ref_revolution(mid, d)
    rho = np.hypot(mid[:, 0], mid[:, 1]) ** dens.p + dens.a
    return c * float((w * np.hypot(E[:, 0], E[:, 1]) * rho).sum())


def _ref_functional_grad(dens, V, d):
    p, a = dens.p, dens.a
    A, B = _ref_ends(V, d)
    E, mid = B - A, 0.5 * (A + B)
    L = np.hypot(E[:, 0], E[:, 1])
    w, dw, c = _ref_revolution(mid, d)
    rm = np.maximum(np.hypot(mid[:, 0], mid[:, 1]), 1e-300)
    rho = rm ** p + a
    along = (w * rho)[:, None] * (E / L[:, None])
    radial = (0.5 * w * L * p * rm ** (p - 2.0))[:, None] * mid
    # the 2D lift is zero; forming it as 0 * (L rho) made it NaN where L rho overflows
    lift = (0.5 * L * rho)[:, None] * dw if d == 3 else 0.0
    return c * _ref_gather(-along + radial + lift, along + radial + lift, d)


def _ref_fan_mass(dens, V, d):
    p = dens.p
    A, B = _ref_ends(V, d)
    P = A[None] + ev._T4[:, None, None] * (B - A)[None]
    cross = _ref_cross(A, B)
    w, _, c = _ref_revolution(P, d)
    f = w * np.hypot(P[..., 0], P[..., 1]) ** p
    S = np.einsum("j,jn->n", ev._WT4, f)
    uniform = 0.25 * (cross * 2.0).sum() if d == 2 else \
        2 * math.pi / 6 * (cross * (A[:, 1] + B[:, 1])).sum()
    return dens.a * float(uniform) + c * ev._radial_factor(p + d - 1) * float((cross * S).sum())


def _ref_fan_mass_grad(dens, V, d):
    p = dens.p
    A, B = _ref_ends(V, d)
    P = A[None] + ev._T4[:, None, None] * (B - A)[None]
    cross = _ref_cross(A, B)
    w, dw, c = _ref_revolution(P, d)
    Rn = np.maximum(np.hypot(P[..., 0], P[..., 1]), 1e-300)
    cp, ca = c * ev._radial_factor(p + d - 1), c * dens.a / d
    f = cp * Rn ** p + ca
    S = np.einsum("j,jn->n", ev._WT4, w * f)
    grad_f = (cp * p * w * Rn ** (p - 2.0))[..., None] * P + f[..., None] * dw
    T0 = np.einsum("j,jnk->nk", ev._WT4 * (1.0 - ev._T4), grad_f)
    T1 = np.einsum("j,jnk->nk", ev._WT4 * ev._T4, grad_f)
    return _ref_gather(S[:, None] * _ref_perp(B) + cross[:, None] * T0,
                       cross[:, None] * T1 - S[:, None] * _ref_perp(A), d)


def _ref_normals(V, d):
    A, B = _ref_ends(V, d)
    E = B - A
    ne = _ref_perp(E) / np.maximum(np.hypot(E[:, 0], E[:, 1]), 1e-300)[:, None]
    nv = _ref_gather(ne, ne, d)
    N = nv / np.maximum(np.hypot(nv[:, 0], nv[:, 1]), 1e-300)[:, None]
    if d == 3:  # a profile's poles move along the axis
        N[0], N[-1] = [1.0, 0.0], [-1.0, 0.0]
    return N


def _ref_star_ok(V, ref):
    W = V - ref
    Wn = np.roll(W, -1, axis=0)
    if not (_ref_cross(W, Wn) > 0.0).all():
        return False
    return int(np.count_nonzero((W[:, 1] < 0.0) & (Wn[:, 1] >= 0.0))) == 1


def _random_states(seed):
    """A random star-shaped loop (64-1024 vertices) and pole-pinned profile (17-257 points)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(64, 1025))
    gaps = rng.uniform(0.2, 1.0, n)
    theta = 2 * math.pi * np.cumsum(gaps) / gaps.sum()
    r = 1.0 + 0.3 * rng.uniform(-1.0, 1.0) * np.sin(3 * theta) + 0.02 * rng.standard_normal(n)
    V = rng.uniform(-0.6, 0.6, 2) + np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    m = int(rng.integers(17, 258))
    th = np.sort(rng.uniform(0.0, math.pi, m))
    th[0], th[-1] = 0.0, math.pi
    s = 1.0 + 0.2 * rng.uniform(-1.0, 1.0) * np.cos(2 * th) + 0.01 * rng.standard_normal(m)
    W = np.column_stack([rng.uniform(-0.6, 0.6) + s * np.cos(th), s * np.sin(th)])
    W[0, 1] = W[-1, 1] = 0.0
    return V, W


_KERNELS = [(ev._functional, _ref_functional), (ev._fan_mass, _ref_fan_mass),
            (ev._functional_grad, _ref_functional_grad), (ev._fan_mass_grad, _ref_fan_mass_grad)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("a", [0.0, 0.3])
def test_complex_kernels_match_the_row_wise_reference(seed, p, a):
    dens = Density(p, a)
    for d, X in zip((2, 3), _random_states(seed)):
        for kernel, ref in _KERNELS:
            got, want = kernel(dens, _Geometry(X, d)), ref(dens, X, d)
            if np.ndim(want) == 0:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (kernel.__name__, d)
            else:
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), \
                    (kernel.__name__, d)
        got, want = ev._normals(_Geometry(X, d)), _ref_normals(X, d)
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_complex_kernels_read_non_contiguous_vertices(seed):
    dens = Density(1.5, 0.3)
    for d, X in zip((2, 3), _random_states(seed)):
        wide = np.zeros((len(X), 4))
        wide[:, 1:3] = X
        for strided in (wide[:, 1:3], np.asfortranarray(X), X[::-1][::-1]):
            for kernel, _ in _KERNELS:
                assert np.array_equal(kernel(dens, _Geometry(strided, d)),
                                      kernel(dens, _Geometry(X, d)))
            assert np.array_equal(ev._normals(_Geometry(strided, d)),
                                  ev._normals(_Geometry(X, d)))
        assert ev._star_ok(_Geometry(wide[:, 1:3], 2), ev._centroid(X)) \
            == ev._star_ok(_Geometry(X, 2), ev._centroid(X))


@pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e150])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("a", [0.0, 0.3])
def test_complex_kernels_fail_where_the_reference_fails(scale, p, a):
    # past the float range a kernel's powers overflow or underflow; the
    # complex kernels must give up on the same entries as the row-wise ones
    # (writing r**(p - 2) as r**p / r**2 makes finite gradients 0/0 once r*r
    # underflows, as at 1e-170)
    dens = Density(p, a)
    with np.errstate(all="ignore"):
        for d, X in zip((2, 3), _random_states(7)):
            X = scale * X
            for kernel, ref in _KERNELS:
                assert np.array_equal(np.isfinite(kernel(dens, _Geometry(X, d))),
                                      np.isfinite(ref(dens, X, d))), (kernel.__name__, d)
            assert np.array_equal(np.isfinite(ev._normals(_Geometry(X, d))),
                                  np.isfinite(_ref_normals(X, d)))
        if scale > 1.0 and p == 2.0:  # L rho overflows, the gradient (about 1e300) does not
            V = scale * _random_states(7)[0]
            assert np.isfinite(ev._functional_grad(dens, _Geometry(V, 2))).all()


def _driver_order(dens):
    """The kernels the driver runs on one record, in its order, each as a function of it.

    The last projection step's mass, the search's functional and validity
    test, the next iteration's gradients, normals and step size, and the
    run's final mass.
    """
    return [("mass", lambda g: ev._fan_mass(dens, g)),
            ("functional", lambda g: ev._functional(dens, g)),
            ("valid", ev._valid),
            ("functional_grad", lambda g: ev._functional_grad(dens, g)),
            ("mass_grad", lambda g: ev._fan_mass_grad(dens, g)),
            ("normals", ev._normals),
            ("step0", lambda g: 0.1 * float(np.add.reduce(g.L) / len(g.L))),
            ("final mass", lambda g: ev._fan_mass(dens, g))]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0, 8.0]),
       a=st.sampled_from([0.0, 0.3]), scale=st.sampled_from([1.0, 1e-305, 1e-170, 1e150]))
# below the 1e-300 radius clamp at p = 1, a = 0 the values' r**p is 1e5 times the
# gradients' clamped one, which the perimeter gradient's tangential part carries
@example(seed=0, p=1.0, a=0.0, scale=1e-305)
def test_kernels_on_a_shared_record_equal_those_on_a_fresh_one(seed, p, a, scale):
    # the driver shares one record between its kernels: what the values
    # keep (radii, their powers, crosses, lengths) must give every later
    # kernel the bits it gives on a record of its own, also where a radius
    # is clamped (1e-305), r*r underflows (1e-170) or L*rho overflows (1e150)
    dens = Density(p, a)
    with np.errstate(all="ignore"):
        for d, X in zip((2, 3), _random_states(seed)):
            X = scale * X
            shared = _Geometry(X, d)
            for name, kernel in _driver_order(dens):
                got, want = kernel(shared), kernel(_Geometry(X, d))
                if isinstance(want, bool):
                    assert got is want, (name, d)
                else:
                    assert np.array_equal(got, want, equal_nan=True), (name, d)


@pytest.mark.parametrize("scale", [1.0, 1e-305, 1e-170, 1e150])
def test_centroid_is_the_mean_to_the_bit(scale):
    # the star test's reference point: V.mean(axis=0)'s row-order sums
    for seed in range(8):
        for X in _random_states(seed):
            X = scale * X
            assert np.array_equal(ev._centroid(X), X.mean(axis=0))
            assert np.array_equal(ev._centroid(-X), (-X).mean(axis=0))


def _outcome(report):
    return (report.final_curve.vertices.tobytes(), report.weighted_perimeter,
            report.weighted_mass, report.iterations, report.converged)


_RUNS = [(evolve_2d, Density(2.0, 0.2), 128), (evolve_3d_axisym, Density(4.0, 0.1), 65),
         (evolve_2d, Density(4.0, 0.1), 96), (evolve_3d_axisym, Density(2.0, 0.3), 33)]


def _run(i):
    evolve, dens, n = _RUNS[i]
    return _outcome(evolve(dens, 1.0, n=n, max_iters=150))


def test_runs_share_no_state_between_calls_or_threads():
    # no cache outlives a call: interleaved 2D and 3D calls, and two calls
    # with different inputs on two threads at once, return what each call
    # returns alone
    alone = [_run(i) for i in range(len(_RUNS))]
    for order in ([1, 0, 3, 2], [0, 1, 0, 3, 2, 3]):
        assert [_run(i) for i in order] == [alone[i] for i in order]
    barrier = threading.Barrier(2)

    def together(i):
        barrier.wait(timeout=60)
        return _run(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads every few kernel calls
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for pair in ([0, 2], [1, 3], [0, 1]):
                assert list(pool.map(together, pair, timeout=120)) == [alone[i] for i in pair]
    finally:
        sys.setswitchinterval(interval)



def test_descent_steps_monotone_and_mass_conserving():
    # the descent runs at unit mass
    dens = Density(2, 0.3)
    M0 = 1.0
    g = _project(dens, _Geometry(_wobbly_curve(n=96, seed=4, center=(0.3, 0.0)), 2))
    per = _functional(dens, g)
    memory = 0.0
    for _ in range(120):
        E = np.roll(g.V, -1, axis=0) - g.V
        step0 = 0.1 * float(np.mean(np.hypot(E[:, 0], E[:, 1])))
        g2, per2, accepted, memory = _descend(dens, g, per, step0, memory)
        if accepted:
            assert per2 <= per + 1e-12
            assert abs(_fan_mass(dens, _Geometry(g2.V, 2)) - M0) <= 1e-8 * M0
        g, per = g2, per2

    # the axisymmetric profile: the poles must stay exactly on the axis
    g = _project(dens, _Geometry(_wobbly_profile(), 3))
    area = _functional(dens, g)
    memory = 0.0
    moves = 0
    for _ in range(60):
        W = g.V
        step0 = 0.1 * float(np.mean(np.hypot(np.diff(W[:, 0]), np.diff(W[:, 1]))))
        g2, area2, accepted, memory = _descend(dens, g, area, step0, memory)
        W2 = g2.V
        assert W2[0, 1] == 0.0 and W2[-1, 1] == 0.0
        if accepted:
            moves += 1
            assert area2 <= area + 1e-12
            assert abs(_fan_mass(dens, _Geometry(W2, 3)) - M0) <= 1e-8 * M0
        g, area = g2, area2
    assert moves > 0


def _uphill(dens, X):
    """+grad(P) at the record X with its grad(M) component removed: _descend's field reversed."""
    pin = ev._pin_poles if X.d == 3 else (lambda G: G)
    gP = pin(_functional_grad(dens, X))
    gM = pin(_fan_mass_grad(dens, X))
    return ev._unit(gP - float(np.sum(gP * gM) / np.sum(gM * gM)) * gM)


def _unit_mass_states(dens):
    """A wobbly loop and profile, each valid and projected onto the unit mass."""
    V = _project(dens, _Geometry(0.7 * _wobbly_curve(n=96, seed=4, center=(0.3, 0.0)), 2))
    W = _project(dens, _Geometry(_wobbly_profile(), 3))
    assert ev._valid(V) and ev._valid(W)
    return V, W


def test_failed_line_search_keeps_state_and_remembers_its_smallest_trial(monkeypatch):
    # every trial uphill along the constraint is rejected, down to the
    # floor of 1e-14 of the state's extent; the next search along the
    # direction starts near there.  Both states are valid, so the
    # perimeter rejects each trial, not the shape test: the curve is
    # scaled to about the unit mass, since a long projection along the
    # normals folds its wobbles
    dens, step0 = Density(2, 0.3), 0.01
    V, W = _unit_mass_states(dens)
    cases = [("_try_direction", V, _functional(dens, V), _uphill(dens, V)),
             ("_try_direction_rev", W, _functional(dens, W), _uphill(dens, W))]
    for name, X, per, dhat in cases:
        Y, per2, step, memory = getattr(ev, name)(dens, X, per, dhat, step0, None)
        floor = 1e-14 * float(np.max(np.abs(X.V)))
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
            getattr(ev, name)(dens, X, per, dhat, step0, None)
    finally:
        hooks.remove()
    assert tracer.counts["evolver.linesearch"] == 2
    assert tracer.counts["evolver.linesearch_accepted"] == 0


def _star_oracle(V, ref):
    """The angle-sum test: steps of arctan2 about ref, each in [0, pi), summing to 2*pi."""
    W = V - ref
    if np.hypot(W[:, 0], W[:, 1]).min() <= 0.0:
        return False
    ang = np.arctan2(W[:, 1], W[:, 0])
    steps = np.mod(np.roll(ang, -1) - ang, 2 * math.pi)
    return abs(float(steps.sum()) - 2 * math.pi) < 1e-9 and float(steps.max()) < math.pi


def _angular_margin(V, ref):
    """Distance of the loop's angular steps about ref from 0 and pi (mod 2*pi)."""
    W = V - ref
    ang = np.arctan2(W[:, 1], W[:, 0])
    steps = np.mod(np.roll(ang, -1) - ang, 2 * math.pi)
    return float(np.min(np.minimum(np.minimum(steps, 2 * math.pi - steps),
                                   np.abs(steps - math.pi))))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 300), seed=st.integers(0, 2 ** 32 - 1), turns=st.sampled_from([1, 2]),
       sense=st.sampled_from([1.0, -1.0]), wobble=st.floats(0.0, 0.9),
       offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_star_ok_matches_the_angle_sum(n, seed, turns, sense, wobble, offset):
    # random star loops about random refs (inside, outside, on the other
    # side of an edge), wound once or twice, either way round
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.05, 1.0, n)
    theta = sense * turns * 2 * math.pi * np.cumsum(gaps) / gaps.sum()
    r = 1.0 + wobble * rng.uniform(-1.0, 1.0, n)
    center = rng.uniform(-3.0, 3.0, 2)
    V = center + np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    ref = center + np.array(offset)
    assert ev._star_ok(_Geometry(V, 2), ref) == _ref_star_ok(V, ref)
    assume(_angular_margin(V, ref) > 1e-9)
    assert ev._star_ok(_Geometry(V, 2), ref) == _star_oracle(V, ref)


def test_star_ok_named_cases():
    theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    twice = np.column_stack([np.cos(2 * theta), np.sin(2 * theta)])
    W = _wobbly_profile()  # closed along the axis from its last point to its first
    cases = [(circle, np.zeros(2), True),
             (circle + [5.0, 0.0], np.zeros(2), False),  # ref outside
             (twice + [0.1, 0.2], np.array([0.1, 0.2]), False),  # wound twice
             (circle[::-1], np.zeros(2), False),  # clockwise
             (circle, circle[7], False),  # a vertex at ref
             (W, W.mean(axis=0), True),
             (W[::-1], W.mean(axis=0), False),
             (W, np.array([0.3, -0.2]), False)]  # ref below the axis, outside the loop
    for V, ref, expected in cases:
        assert _star_oracle(V, ref) == expected
        assert ev._star_ok(_Geometry(V, 2), ref) == expected


def _search_descending_trials(monkeypatch, shift, valid_before, valid_after):
    """_line_search on trials that all lower the functional; projection adds shift.

    The star test says valid_before for unprojected trials, valid_after for
    projected ones.  Returns (V, result, the records it was called on,
    trials made).
    """
    V = _Geometry(np.ones((16, 2)), 2)
    checked = []

    def ok(X, ref):
        checked.append(X)
        return valid_after if shift and X.V[0, 0] >= 2.0 else valid_before

    def project(dens, X, chord):
        return _Geometry(X.V + shift, 2) if shift else X

    monkeypatch.setattr(ev, "_star_ok", ok)
    monkeypatch.setattr(ev, "_project", project)
    monkeypatch.setattr(ev, "_functional", lambda dens, X: 0.0)
    result = ev._line_search(Density(2, 0.1), V, 10.0, np.ones((16, 2)), 0.5, None)
    trials = sum(1 for k in range(100) if 0.5 * 2.0 ** -k > 1e-14)  # down to the floor
    return V, result, checked, trials


@pytest.mark.parametrize("valid_before, valid_after, tests_per_trial", [
    (False, True, 1), (True, False, 2), (False, False, 1)])
def test_line_search_rejects_descending_trials_that_fail_validity(monkeypatch, valid_before,
                                                                  valid_after, tests_per_trial):
    # every trial lowers the functional; an invalid state before or after
    # the projection rejects it, all the way down to the floor
    V, (Y, per, step, _), checked, trials = _search_descending_trials(monkeypatch, 1.0,
                                                                      valid_before, valid_after)
    assert Y is V and per == 10.0 and step == 0.0
    assert len(checked) == tests_per_trial * trials
    V, (Y, per, step, _), checked, _ = _search_descending_trials(monkeypatch, 1.0, True, True)
    assert np.array_equal(Y.V, V.V + 1.5) and per == 0.0 and step == 0.5 and len(checked) == 2


def test_line_search_accepts_only_a_strict_decrease(monkeypatch):
    # every trial leaves the functional bit-identical: none is accepted, so
    # a run sitting on a flat functional stalls instead of counting steps
    V = _Geometry(np.ones((16, 2)), 2)
    monkeypatch.setattr(ev, "_star_ok", lambda X, ref: True)
    monkeypatch.setattr(ev, "_project", lambda dens, X, chord: X)
    monkeypatch.setattr(ev, "_functional", lambda dens, X: 10.0)
    Y, per, step, memory = ev._line_search(Density(2, 0.1), V, 10.0, np.ones((16, 2)), 0.5,
                                           None)
    assert Y is V and per == 10.0 and step == 0.0
    assert 0.0 < memory <= 2e-14


@pytest.mark.parametrize("valid", [True, False])
def test_line_search_tests_an_unmoved_projection_once(monkeypatch, valid):
    V, (Y, _, step, _), checked, trials = _search_descending_trials(monkeypatch, 0.0, valid,
                                                                    valid)
    if valid:
        assert step == 0.5 and len(checked) == 1 and checked[0] is Y
    else:
        assert Y is V and step == 0.0 and len(checked) == trials


def _trials(events):
    """Split a line search's events into trials, each opened by its "down"/"up" event."""
    trials = []
    for event in events:
        if event == "ok":
            trials[-1].append(event)
        else:
            trials.append([event])
    return trials


@pytest.mark.parametrize("ok, search, state", [
    ("_star_ok", "_try_direction", 0),
    ("_profile_ok", "_try_direction_rev", 1),
], ids=["2d", "3d"])
@pytest.mark.parametrize("downhill", [True, False], ids=["downhill", "uphill"])
def test_line_search_tests_validity_only_where_the_functional_does_not_rise(
        monkeypatch, ok, search, state, downhill):
    dens = Density(2, 0.3)
    X = _unit_mass_states(dens)[state]
    dhat = _uphill(dens, X)
    per = _functional(dens, X)
    events = []  # "down" or "up" per functional value, "ok" per validity test
    value, valid = _functional, getattr(ev, ok)

    def traced_value(dens, Y):
        pt = value(dens, Y)
        events.append("down" if pt <= per else "up")
        return pt

    def traced_valid(*args):
        events.append("ok")
        return valid(*args)

    monkeypatch.setattr(ev, "_functional", traced_value)
    monkeypatch.setattr(ev, ok, traced_valid)
    # a first trial of a tenth of the extent overshoots even downhill
    _, _, step, _ = getattr(ev, search)(dens, X, per, -dhat if downhill else dhat, 0.1, None)
    trials = _trials(events)
    assert (step > 0.0) == downhill
    assert any(t[0] == "up" for t in trials)
    assert all(t == ["up"] for t in trials if t[0] == "up")  # no validity test
    if downhill:
        assert trials[-1][0] == "down" and trials[-1][1:] in (["ok"], ["ok", "ok"])


def test_line_search_floor_is_relative_to_the_curve(monkeypatch):
    # an absolute floor (1e-14 * (max|V| + 1)) lies above every first trial
    # once the curve is tiny: the run then made no trial at all, projected
    # only once, and still reported convergence
    calls = _count_calls(monkeypatch, "_project")
    M0 = 1e-24
    report = evolve_2d(Density(4, 0.1), M0, n=256)
    assert calls[0] > 1
    assert abs(report.weighted_mass - M0) <= 1e-8 * M0
    assert abs(_fan_mass(Density(4, 0.1), _Geometry(report.final_curve.vertices, 2)) - M0) \
        <= 1e-8 * M0


def test_resample_preserves_geometry():
    theta = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    r = 1.0 + 0.1 * np.sin(3 * theta)
    V = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    dens = Density(2, 0.4)
    V2 = _resample(_Geometry(V, 2))
    assert len(V2) == len(V)
    assert _functional(dens, _Geometry(V2, 2)) == pytest.approx(
        _functional(dens, _Geometry(V, 2)), rel=1e-3)
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
    calls = _count_calls(monkeypatch, "_fan_mass_grad")
    a = 0.2
    report = evolve_2d(Density(2, a), 1.0, n=128, max_iters=1500, tol=1e-9)
    ref = solve_2d_p2(a, 1.0)
    assert report.converged
    assert report.weighted_perimeter == pytest.approx(ref.perimeter, rel=1e-2)
    assert report.center_offset_estimate == pytest.approx(ref.center_offset, rel=0.05)
    assert abs(report.weighted_mass - 1.0) <= 1e-8
    # line searches warm-started: a cold start at a tenth of
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
    assert abs(_fan_mass(Density(4, 0.1), _Geometry(V, 2)) - 1e-20) <= 1e-8 * 1e-20
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
    calls = _count_calls(monkeypatch, "_fan_mass_grad")
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


@pytest.mark.parametrize("evolve, n, search", [(evolve_2d, 64, "_try_direction"),
                                               (evolve_3d_axisym, 33, "_try_direction_rev")],
                         ids=["2d", "3d"])
def test_line_search_projections_take_no_mass_gradient(monkeypatch, evolve, n, search):
    # _descend takes one mass gradient and one set of normals per iteration
    # and hands them to the line searches, whose projections take chord
    # steps with them; only the projections outside a search (the start,
    # each resample) take Newton steps, each with a fresh gradient and
    # normals
    grad, normals, project, descend = "_fan_mass_grad", "_normals", "_project", "_descend"
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

    for name in (grad, normals, project, search, descend, "_resample"):
        wrap(name)
    report = evolve(Density(2.0, 0.2), 1.0, n=n, max_iters=150)
    resamples = counts.get(("_resample", False, False), 0)
    iterations = counts[(descend, False, False)]
    newton_steps = counts.get((normals, False, True), 0)
    assert iterations == report.iterations > 100 and resamples == 1
    assert counts[(project, True, False)] > 0  # every trial projection...
    assert counts.get((grad, True, True), 0) == 0  # ...takes no mass gradient
    assert counts.get((normals, True, True), 0) == 0
    assert newton_steps > 0
    assert counts[(grad, False, False)] == iterations
    assert sum(v for (name, *_), v in counts.items() if name == grad) == iterations + newton_steps
    # one line search per iteration, along the smoothed field
    assert counts[(search, False, False)] == iterations


def test_chord_projection_lands_on_the_mass_and_falls_back_to_newton(monkeypatch):
    dens, M0 = Density(4, 0.1), 1.0  # the projection's target is the unit mass
    V = _project(dens, _Geometry(_wobbly_curve(n=96, seed=2), 2))
    N = ev._normals(V)
    slope = float((_fan_mass_grad(dens, V) * N).sum())
    trial = _Geometry(V.V + 1e-3 * ev._unit(-_functional_grad(dens, V)), 2)
    assert abs(_fan_mass(dens, trial) - M0) > 1e-6 * M0
    grads = _count_calls(monkeypatch, "_fan_mass_grad")
    cases = [((N, slope), False),  # the iterate's chord: no gradient
             ((N, 0.0), True), ((N, -slope), True),  # no outward chord slope: Newton
             ((N, 0.3 * slope), True)]  # the first chord step overshoots the residual
    for chord, fresh in cases:
        grads[0] = 0
        W = _project(dens, trial, chord)
        assert abs(_fan_mass(dens, W) - M0) <= 1e-10 * M0, chord[1]
        assert (grads[0] > 0) == fresh, chord[1]
    # chord steps that shrink the residual are kept: with a slope 10 % off
    # they converge in seven steps, against three with the iterate's own
    grads[0] = 0
    W = _project(dens, trial, (N, 0.9 * slope))
    assert abs(_fan_mass(dens, W) - M0) <= 1e-10 * M0 and grads[0] == 0


@pytest.mark.parametrize("evolve, dim, n", [(evolve_2d, 2, 64), (evolve_3d_axisym, 3, 33)],
                         ids=["2d", "3d"])
def test_huge_masses_descend_without_overflow(evolve, dim, n):
    # the squared mass gradient once overflowed past |gM| ~ 1e154: NaN
    # directions, every search failed and the run stopped after 25 stalls
    # reporting convergence.  Huge masses now reach the descent at unit
    # mass, where the offset is below 1e-57 at both masses and negligible,
    # so the runs agree after the exact scaling of r**p
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


@pytest.mark.uncertified_start
@pytest.mark.parametrize("evolve, a, n, closed_form", [(evolve_2d, 0.05, 256, solve_2d_p2),
                                                      (evolve_3d_axisym, 0.1, 129, solve_3d_p2)],
                         ids=["2d", "3d"])
def test_cold_start_slides_home(monkeypatch, evolve, a, n, closed_form):
    # with the spectral certificate out of reach the run starts from the
    # circle fallback: the ball's radius R at sqrt(R**2 - a), far off the
    # optimum's centre.  The one search along the smoothed field carries
    # the translation, and the centre slides to sqrt(a_crit - a)
    monkeypatch.setattr(sp, "KKT_RTOL", 0.0)
    dens, d = Density(2, a), 2 if evolve is evolve_2d else 3
    report = evolve(dens, 1.0, n=n)
    a_crit = critical_offset(2.0, Dimension(d), 1.0)
    R = symmetric_ball(dens, Dimension(d), 1.0).radius
    assert math.sqrt(R * R - a) > 1.15 * math.sqrt(a_crit - a)  # the start is far out
    assert report.converged
    assert report.center_offset_estimate == pytest.approx(math.sqrt(a_crit - a), rel=1e-3)
    assert report.weighted_perimeter == pytest.approx(closed_form(a, 1.0).perimeter, rel=1e-6)


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
    # a renamed hook, or a shared kernel called directly instead of through
    # its per-state name, reads zero here.  Over 100 accepted steps make a
    # resample.
    tracing = _benchmark_tracing(monkeypatch)
    for evolve, n in ((evolve_2d, 64), (evolve_3d_axisym, 33)):
        tracer = tracing.Tracer()
        hooks = tracing.Instrumentation(tracer)
        hooks.install()
        try:
            evolve(Density(2.0, 0.2), 1.0, n=n, max_iters=150)
        finally:
            hooks.remove()
        for key in ("linesearch", "linesearch_accepted", "projection", "ls_projection_ok",
                    "mass_grad", "perimeter_grad", "resample", "star_check", "ls_validity"):
            assert tracer.counts["evolver." + key] > 0, (evolve.__name__, key)


@pytest.mark.parametrize("evolve, p, a, n, iterations, projections, mass_grads", [
    (evolve_2d, 2.0, 0.2, 256, 101, 222, 104), (evolve_2d, 4.0, 0.1, 256, 101, 218, 104),
    (evolve_2d, 2.0, 0.2, 1024, 50, 112, 51), (evolve_3d_axisym, 2.0, 0.1, 129, 101, 217, 104),
    (evolve_3d_axisym, 4.0, 0.1, 129, 101, 216, 104)],
    ids=["2d-p2", "2d-p4", "2d-p2-n1024", "3d-p2", "3d-p4"])
def test_benchmark_runs_keep_their_structure(monkeypatch, evolve, p, a, n, iterations,
                                             projections, mass_grads):
    # the benchmark's evolver cases, counted by its tracer: a kernel rewrite
    # that changes the algorithm shows here as a moved count
    tracing = _benchmark_tracing(monkeypatch)
    tracer = tracing.Tracer()
    hooks = tracing.Instrumentation(tracer)
    hooks.install()
    try:
        report = evolve(Density(p, a), 1.0, n=n)
    finally:
        hooks.remove()
    assert report.converged and report.iterations == iterations
    counts = tracer.counts
    assert counts["evolver.linesearch"] == counts["evolver.perimeter_grad"] == iterations
    assert counts["evolver.resample"] == iterations // 100
    assert counts["evolver.projection"] == projections
    assert counts["evolver.mass_grad"] == mass_grads
