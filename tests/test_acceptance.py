"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and margins.  Every tolerance is pinned here, not calibrated at
runtime.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from isodense import (
    Density,
    Dimension,
    Interval,
    brute_force_oracle,
    circle_polar_profile,
    critical_offset,
    critical_offset_1d,
    evolve_2d,
    evolve_3d_axisym,
    generalized_curvature,
    isoperimetric_quotient,
    mass1d,
    offcenter_p2_2d,
    offcenter_p2_3d,
    offcenter_quadrature_2d,
    offcenter_quadrature_3d,
    perimeter1d,
    reduce_intervals,
    solve_2d_p2,
    solve_3d_p2,
    solve_p1,
    solve_p2,
    solve_p_lt_1,
)
from isodense.evolver import _Geometry, _fan_mass, _fan_mass_grad, _functional, _functional_grad
from isodense.interval1d import _beta_p_lt_1_closed


@contextlib.contextmanager
def criterion(number, label, budget_s):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.time() - start
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s


def test_criterion_1_critical_offsets():
    with criterion(1, "critical offsets in d=1,2 and the 1D specialization", 1.0):
        assert critical_offset(2.0, Dimension(1), 1.0) == pytest.approx(0.5200, abs=0.005)
        assert critical_offset(2.0, Dimension(2), 1.0) == pytest.approx(
            math.sqrt(2.0 / (3.0 * math.pi)), abs=0.0005)
        assert critical_offset(2.0, Dimension(2), 1.0) == pytest.approx(0.4607, abs=0.0005)
        rng = np.random.default_rng(123)
        for _ in range(50):
            p = float(rng.uniform(1.01, 6.0))
            mass = float(rng.uniform(0.05, 20.0))
            general = critical_offset(p, Dimension(1), mass)
            dedicated = critical_offset_1d(p, mass)
            assert abs(general - dedicated) <= 1e-12 * dedicated


def test_criterion_2_p2_branch_structure():
    with criterion(2, "1D p=2 branch structure and oracle agreement", 30.0):
        M0 = 1.0
        a_crit = 0.25 * (3.0 * M0) ** (2.0 / 3.0)
        target = (3.0 * M0) ** (2.0 / 3.0)
        for a in np.linspace(0.0, a_crit, 51):
            sol = solve_p2(float(a), M0)
            assert abs(sol.perimeter - target) <= 1e-12 * target
            assert abs(sol.alpha * sol.beta + a) <= 1e-12
            oracle = brute_force_oracle(Density(2.0, float(a)), M0, 10_000)
            assert abs(oracle.perimeter - sol.perimeter) <= 2e-3 * sol.perimeter
        p_sym = solve_p2(np.nextafter(a_crit, np.inf), M0).perimeter
        assert abs(p_sym - target) <= 1e-9 * target


def test_criterion_3_p1():
    with criterion(3, "1D p=1 closed form vs oracle", 10.0):
        for a in (0.0, 0.5, 2.0, 10.0):
            sol = solve_p1(a, 1.0)
            oracle = brute_force_oracle(Density(1.0, a), 1.0, 10_000)
            assert abs(sol.perimeter - oracle.perimeter) <= 1e-4 * sol.perimeter
        exact = solve_p1(0.5, 1.0)
        assert abs(exact.beta - 1.0) <= 1e-12
        assert abs(exact.perimeter - 2.0) <= 1e-12


def test_criterion_4_p_half():
    with criterion(4, "1D p=1/2 root residual and stabilized closed form", 5.0):
        M0 = 1.0
        for a in np.linspace(0.0, 0.9 * (3.0 * M0) ** (1.0 / 3.0), 25):
            dens = Density(0.5, float(a))
            sol = solve_p_lt_1(dens, M0)
            resid = sol.beta ** 1.5 - 1.5 * (M0 - a * sol.beta)
            assert abs(resid) < 1e-10
            closed = _beta_p_lt_1_closed(0.5, float(a), M0)
            assert closed is not None
            assert abs(closed - sol.beta) <= 1e-6 * sol.beta


def test_criterion_5_reduction_suite():
    with criterion(5, "multi-interval reduction conserves mass, lowers perimeter", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            p = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            a = float(rng.uniform(0.05, 2.0))
            dens = Density(p, a)
            edges = np.sort(rng.uniform(-3.0, 3.0, size=2 * int(rng.integers(1, 6))))
            ivs = [Interval(float(edges[2 * i]), float(edges[2 * i + 1]))
                   for i in range(len(edges) // 2)]
            total_mass = sum(mass1d(dens, iv) for iv in ivs)
            total_per = sum(perimeter1d(dens, iv) for iv in ivs)
            out = reduce_intervals(dens, ivs)
            assert abs(mass1d(dens, out) - total_mass) <= 1e-10 * total_mass
            assert perimeter1d(dens, out) <= total_per * (1.0 + 1e-12)
            # the final merge across the origin saves exactly 2*rho(0) = 2a
            t_neg, t_pos = abs(out.lo), out.hi
            if t_neg > 0.0 and t_pos > 0.0:
                p_pair = perimeter1d(dens, Interval(-t_neg, 0.0)) \
                    + perimeter1d(dens, Interval(0.0, t_pos))
                assert abs((p_pair - perimeter1d(dens, out)) - 2.0 * a) <= 1e-12


def test_criterion_6_2d_p2_evolver_reproduction():
    with criterion(6, "2D p=2 evolver matches the off-centre/centred circle", 300.0):
        a_crit = math.sqrt(2.0 / (3.0 * math.pi))
        for a in (0.1, 0.2, 0.4, 0.6, 1.0):
            ref = solve_2d_p2(a, 1.0)
            rep = evolve_2d(Density(2.0, a), 1.0, n=512, max_iters=4000, tol=1e-9)
            assert abs(rep.weighted_perimeter - ref.perimeter) <= 5e-3 * ref.perimeter
            assert abs(rep.radius_estimate - ref.radius) <= 5e-3 * ref.radius
            if a < a_crit:
                assert abs(rep.center_offset_estimate - ref.center_offset) \
                    <= 2e-2 * ref.center_offset
            else:
                assert rep.center_offset_estimate <= 2e-2 * ref.radius
            assert abs(isoperimetric_quotient(rep) - 1.0) <= 1e-3


def test_criterion_7_p4_noncircular():
    with criterion(7, "2D p=4 region is measurably non-circular, p=2 is not", 120.0):
        rep4 = evolve_2d(Density(4.0, 0.1), 1.0, n=512, max_iters=4000, tol=1e-9)
        q4 = isoperimetric_quotient(rep4)
        assert q4 > 1.001
        rep2 = evolve_2d(Density(2.0, 0.1), 1.0, n=512, max_iters=4000, tol=1e-9)
        q2 = isoperimetric_quotient(rep2)
        assert q2 < 1.001


def test_criterion_8_3d_p2():
    with criterion(8, "3D p=2 constant area below critical offset; evolver match", 180.0):
        target = 8.0 * math.pi * (15.0 / (32.0 * math.pi)) ** 0.8
        assert target == pytest.approx(5.487, abs=0.001)
        a_crit = (15.0 / (32.0 * math.pi)) ** 0.4
        for a in np.linspace(0.0, a_crit, 11):
            assert solve_3d_p2(float(a), 1.0).perimeter == pytest.approx(target, rel=1e-12)
        ref = solve_3d_p2(0.3, 1.0)
        rep = evolve_3d_axisym(Density(2.0, 0.3), 1.0, n=129, max_iters=4000, tol=1e-9)
        assert abs(rep.weighted_perimeter - ref.perimeter) <= 1e-2 * ref.perimeter
        assert abs(rep.center_offset_estimate - ref.center_offset) \
            <= 3e-2 * ref.center_offset


def test_criterion_9_generalized_curvature():
    with criterion(9, "generalized curvature constant on the optimum, not on an ellipse", 1.0):
        a = 0.2
        dens = Density(2.0, a)
        sol = solve_2d_p2(a, 1.0)
        theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        r, rd, rdd = circle_polar_profile(sol.radius, sol.center_offset, theta)
        kappa = np.array([
            generalized_curvature(dens, float(r[i]), float(rd[i]), float(rdd[i]))
            for i in range(64)])
        assert (kappa.max() - kappa.min()) / abs(kappa.mean()) < 1e-6

        # negative control: 2:1 ellipse of the same weighted mass
        coef = 5.0 * math.pi / 32.0
        A2 = (-a * math.pi / 2.0
              + math.sqrt((a * math.pi / 2.0) ** 2 + 4.0 * coef)) / (2.0 * coef)
        A = math.sqrt(A2)
        B = A / 2.0
        radius = lambda t: A * B / math.sqrt((B * math.cos(t)) ** 2
                                             + (A * math.sin(t)) ** 2)
        h = 1e-4
        kap = []
        for t in theta:
            rr = radius(t)
            rdote = (radius(t + h) - radius(t - h)) / (2.0 * h)
            rddote = (radius(t + h) - 2.0 * rr + radius(t - h)) / (h * h)
            kap.append(generalized_curvature(dens, rr, rdote, rddote))
        kap = np.array(kap)
        assert (kap.max() - kap.min()) / abs(kap.mean()) > 1e-2


def test_criterion_10_gradient_and_quadrature_hygiene():
    with criterion(10, "analytic gradients vs finite differences; quadrature oracles", 30.0):
        rng = np.random.default_rng(7)
        for k in range(20):
            n = 48
            theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            r = 1.0 + 0.12 * np.sin(3 * theta + rng.uniform(0, 2 * math.pi)) \
                + 0.07 * np.cos(int(rng.integers(2, 6)) * theta)
            cx, cy = rng.uniform(-0.3, 0.3, size=2)
            V = np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])
            dens = Density(float(rng.uniform(0.6, 4.0)), float(rng.uniform(0.0, 1.5)))
            gP = _functional_grad(dens, _Geometry(V, 2))
            gM = _fan_mass_grad(dens, _Geometry(V, 2))
            h = 1e-6
            for g, f in ((gP, _functional), (gM, _fan_mass)):
                fd = np.zeros_like(V)
                for i in range(n):
                    for j in range(2):
                        Vp = V.copy(); Vp[i, j] += h
                        Vm = V.copy(); Vm[i, j] -= h
                        fd[i, j] = (f(dens, _Geometry(Vp, 2))
                                    - f(dens, _Geometry(Vm, 2))) / (2.0 * h)
                assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-5

        for _ in range(6):
            R = float(rng.uniform(0.3, 1.4))
            r0 = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.0, 1.2))
            dens = Density(2.0, a)
            per, mass = offcenter_p2_2d(R, r0, a)
            per_q, mass_q = offcenter_quadrature_2d(dens, R, r0)
            assert abs(per_q - per) <= 1e-13 * per
            assert abs(mass_q - mass) <= 1e-13 * mass
            area, mass3 = offcenter_p2_3d(R, r0, a)
            area_q, mass3_q = offcenter_quadrature_3d(dens, R, r0)
            assert abs(area_q - area) <= 1e-13 * area
            assert abs(mass3_q - mass3) <= 1e-13 * mass3
