import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodense import (
    Density,
    Interval,
    IntervalBranch,
    brute_force_oracle,
    contour_curvatures,
    contour_grid,
    mass1d,
    perimeter1d,
    reduce_intervals,
    solve_general,
    solve_p1,
    solve_p2,
    solve_p_lt_1,
    solve_symmetric,
)
from isodense.numerics import NumericError, bisect
from isodense import density, interval1d
from isodense.density import radial_mass_inverse
from isodense.interval1d import (
    _beta_p_lt_1_closed,
    solve_general_batch,
    solve_p_lt_1_batch,
)
from quadrature import gauss_legendre


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    assert Interval(0.0, 0.0).width == 0.0


def test_perimeter_examples():
    assert perimeter1d(Density(2, 0.25), Interval(-0.20149, 1.24076)) == pytest.approx(
        3.0 ** (2.0 / 3.0), abs=1e-4)
    assert perimeter1d(Density(1, 0.5), Interval(0.0, 1.0)) == 2.0
    assert perimeter1d(Density(3, 0.7), Interval(0.0, 0.0)) == pytest.approx(1.4)


def test_mass_examples():
    assert mass1d(Density(2, 1), Interval(-0.46622, 0.46622)) == pytest.approx(1.0, abs=2e-5)
    assert mass1d(Density(2, 1), Interval(0.7, 0.7)) == 0.0
    assert mass1d(Density(1, 0.5), Interval(0.0, 1.0)) == pytest.approx(1.0)


def test_mass_matches_quadrature():
    dens = Density(1.7, 0.3)
    f = lambda x: np.abs(x) ** dens.p + dens.a
    for lo, hi in [(0.4, 1.3), (-2.0, -0.5), (-0.9, 1.1)]:
        if lo < 0.0 < hi:  # split at the kink of |x|**p
            oracle = gauss_legendre(f, lo, 0.0, 64) + gauss_legendre(f, 0.0, hi, 64)
        else:
            oracle = gauss_legendre(f, lo, hi, 64)
        # quadrature accuracy for x**1.7 is limited by its endpoint derivative
        assert mass1d(dens, Interval(lo, hi)) == pytest.approx(oracle, rel=1e-9)


def test_solve_p2_a0():
    sol = solve_p2(0.0, 1.0)
    assert sol.branch is IntervalBranch.AT_ORIGIN
    assert sol.alpha == 0.0
    assert sol.beta == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)
    assert sol.perimeter == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-14)


def test_solve_p2_asymmetric():
    sol = solve_p2(0.25, 1.0)
    assert sol.branch is IntervalBranch.ASYMMETRIC
    assert sol.alpha == pytest.approx(-0.20149, abs=1e-5)
    assert sol.beta == pytest.approx(1.24076, abs=1e-5)
    assert sol.perimeter == pytest.approx(2.08008, abs=1e-5)
    assert sol.alpha * sol.beta == pytest.approx(-0.25, abs=1e-12)
    oracle = brute_force_oracle(Density(2, 0.25), 1.0, 10_000)
    assert oracle.perimeter == pytest.approx(sol.perimeter, rel=2e-3)


def test_solve_p2_symmetric():
    sol = solve_p2(1.0, 1.0)
    assert sol.branch is IntervalBranch.SYMMETRIC
    assert sol.beta == pytest.approx(2 ** (1 / 3) - 2 ** (-1 / 3), rel=1e-13)
    assert sol.perimeter == pytest.approx(2.43472, abs=1e-5)
    assert sol.alpha == -sol.beta
    oracle = brute_force_oracle(Density(2, 1.0), 1.0, 10_000)
    assert oracle.branch is IntervalBranch.SYMMETRIC
    assert oracle.perimeter == pytest.approx(sol.perimeter, rel=2e-3)


def test_solve_p2_branch_continuity_at_critical_offset():
    for M0 in (0.5, 1.0, 2.0):
        a_crit = 0.25 * (3.0 * M0) ** (2.0 / 3.0)
        p_asym = (3.0 * M0) ** (2.0 / 3.0)
        p_sym = solve_p2(np.nextafter(a_crit, np.inf), M0).perimeter
        assert p_sym == pytest.approx(p_asym, rel=1e-9)


def test_solve_p2_perimeter_independent_of_a():
    M0 = 1.0
    a_crit = 0.25 * (3.0 * M0) ** (2.0 / 3.0)
    target = (3.0 * M0) ** (2.0 / 3.0)
    for a in np.linspace(0.0, a_crit, 21):
        sol = solve_p2(float(a), M0)
        assert sol.perimeter == pytest.approx(target, rel=1e-12)
        assert sol.alpha * sol.beta == pytest.approx(-a, abs=1e-12)


def test_solve_p1():
    sol = solve_p1(0.5, 1.0)
    assert sol.branch is IntervalBranch.AT_ORIGIN
    assert sol.beta == pytest.approx(1.0, rel=1e-14)
    assert sol.perimeter == pytest.approx(2.0, rel=1e-14)

    sol0 = solve_p1(0.0, 1.0)
    assert sol0.beta == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert sol0.perimeter == pytest.approx(math.sqrt(2.0), rel=1e-14)

    sol2 = solve_p1(2.0, 1.0)
    assert sol2.beta == pytest.approx(math.sqrt(6.0) - 2.0, rel=1e-13)
    # P = beta + 2a = a + sqrt(a^2 + 2*M0)
    assert sol2.perimeter == pytest.approx(2.0 + math.sqrt(6.0), rel=1e-13)
    oracle = brute_force_oracle(Density(1, 2.0), 1.0, 10_000)
    assert oracle.branch is IntervalBranch.AT_ORIGIN
    assert oracle.perimeter == pytest.approx(sol2.perimeter, rel=1e-4)


def test_solve_p_lt_1():
    sol0 = solve_p_lt_1(Density(0.5, 0.0), 1.0)
    assert sol0.beta == pytest.approx(1.5 ** (2.0 / 3.0), rel=1e-12)
    assert sol0.perimeter == pytest.approx(1.5 ** (1.0 / 3.0), rel=1e-12)

    sol = solve_p_lt_1(Density(0.5, 0.5), 1.0)
    assert sol.branch is IntervalBranch.AT_ORIGIN
    assert sol.beta == pytest.approx(0.8868, abs=1e-3)
    assert sol.perimeter == pytest.approx(1.9417, abs=1e-3)
    # root satisfies the defining equation
    resid = sol.beta ** 1.5 - 1.5 * (1.0 - 0.5 * sol.beta)
    assert abs(resid) < 1e-10

    with pytest.raises(ValueError):
        solve_p_lt_1(Density(2, 0.5), 1.0)


def test_p_half_closed_form_matches_bisection():
    M0 = 1.0
    a_top = 0.9 * (3.0 * M0) ** (1.0 / 3.0)
    for a in np.linspace(0.0, a_top, 19):
        dens = Density(0.5, float(a))
        sol = solve_p_lt_1(dens, M0)
        closed = _beta_p_lt_1_closed(0.5, float(a), M0)
        assert closed is not None
        assert closed == pytest.approx(sol.beta, rel=1e-6)


def test_p_half_closed_form_yields_to_bisection_at_huge_mass():
    # D**2 overflows, the resolvent evaluates to zero and the closed form
    # steps aside; the bisection root (1.5*M0)**(2/3) stands alone
    M0 = 1e300
    assert _beta_p_lt_1_closed(0.5, 0.25, M0) is None
    sol = solve_p_lt_1(Density(0.5, 0.25), M0)
    assert sol.beta == pytest.approx((1.5 * M0) ** (2.0 / 3.0), rel=1e-9)


def test_p_half_closed_form_steps_aside_when_a_cubed_overflows():
    assert _beta_p_lt_1_closed(0.5, 2.69661696932527e+80, 4.150746624605548e+288) is None
    assert _beta_p_lt_1_closed(0.5, 1e200, 1.0) is None


def test_solve_symmetric():
    # p = 2, a = 1: 2*beta**3/3 + 2*beta = 1 has the root 2**(1/3) - 2**(-1/3);
    # solve_p2's symmetric branch is this solver
    beta2 = solve_symmetric(Density(2, 1), 1.0).beta
    assert beta2 == pytest.approx(2 ** (1 / 3) - 2 ** (-1 / 3), rel=1e-15)
    assert solve_p2(1.0, 1.0).beta == beta2
    sol4 = solve_symmetric(Density(4, 1), 1.0)
    resid = 2.0 * sol4.beta ** 5 / 5.0 + 2.0 * sol4.beta - 1.0
    assert abs(resid) < 1e-12
    assert solve_symmetric(Density(2, 0), 1.0).beta == pytest.approx(
        1.5 ** (1.0 / 3.0), rel=1e-12)
    with pytest.raises(ValueError):
        solve_symmetric(Density(1, 1), 1.0)


def test_solve_general_matches_closed_forms():
    sol = solve_general(Density(2, 0.25), 1.0)
    assert sol.perimeter == pytest.approx(solve_p2(0.25, 1.0).perimeter, rel=1e-6)
    assert sol.branch is IntervalBranch.ASYMMETRIC

    sol1 = solve_general(Density(1, 0.5), 1.0)
    assert sol1.perimeter == pytest.approx(solve_p1(0.5, 1.0).perimeter, rel=1e-6)
    assert sol1.branch is IntervalBranch.AT_ORIGIN

    solh = solve_general(Density(0.5, 0.5), 1.0)
    assert solh.perimeter == pytest.approx(
        solve_p_lt_1(Density(0.5, 0.5), 1.0).perimeter, rel=1e-6)


def test_solve_general_p4_asymmetric_beats_endpoints():
    dens = Density(4, 0.2)
    sol = solve_general(dens, 1.0)
    assert sol.branch is IntervalBranch.ASYMMETRIC
    at_origin_beta = float(radial_mass_inverse(dens.p, dens.a, 1.0))
    p_origin = at_origin_beta ** 4 + 2 * 0.2
    p_sym = solve_symmetric(dens, 1.0).perimeter
    assert sol.perimeter < p_origin
    assert sol.perimeter < p_sym
    # perimeter decreases with a on this branch
    p_vals = [solve_general(Density(4, a), 1.0).perimeter for a in (0.15, 0.2, 0.25)]
    assert p_vals[0] > p_vals[1] > p_vals[2]


def test_solution_mass_consistency():
    cases = [
        (Density(2, 0.25), 1.0, solve_p2(0.25, 1.0)),
        (Density(2, 1), 1.0, solve_p2(1.0, 1.0)),
        (Density(1, 0.5), 1.0, solve_p1(0.5, 1.0)),
        (Density(0.5, 0.5), 1.0, solve_p_lt_1(Density(0.5, 0.5), 1.0)),
        (Density(4, 1), 2.0, solve_symmetric(Density(4, 1), 2.0)),
        (Density(1.5, 0.3), 1.0, solve_general(Density(1.5, 0.3), 1.0)),
        (Density(4, 0.2), 1.0, solve_general(Density(4, 0.2), 1.0)),
        (Density(4, 0.2), 1.0, brute_force_oracle(Density(4, 0.2), 1.0, 1000)),
    ]
    for dens, M0, sol in cases:
        # the solution carries its mass, with the bits of mass1d's
        assert sol.mass == mass1d(dens, Interval(sol.alpha, sol.beta))
        assert abs(sol.mass - M0) <= 1e-9 * M0
        assert perimeter1d(dens, Interval(sol.alpha, sol.beta)) == pytest.approx(
            sol.perimeter, rel=1e-12)


def test_first_order_optimality_under_constrained_perturbation():
    for dens, M0, sol in [
        (Density(2, 0.25), 1.0, solve_p2(0.25, 1.0)),
        (Density(2, 1.0), 1.0, solve_p2(1.0, 1.0)),
        (Density(1, 0.5), 1.0, solve_p1(0.5, 1.0)),
        (Density(4, 0.2), 1.0, solve_general(Density(4, 0.2), 1.0)),
    ]:
        s_opt = -sol.alpha
        deltas = [1e-3] if s_opt < 1e-6 else [-1e-3, 1e-3]
        for delta in deltas:
            s = s_opt + delta
            beta = float(radial_mass_inverse(dens.p, dens.a, M0 - dens.primitive(s)))
            per = s ** dens.p + beta ** dens.p + 2 * dens.a
            assert per >= sol.perimeter - 1e-8


def test_oracle_agreement_across_parameter_grid():
    rng = np.random.default_rng(17)
    for _ in range(12):
        p = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]))
        a = float(rng.uniform(0.0, 1.5))
        M0 = float(rng.uniform(0.3, 3.0))
        dens = Density(p, a)
        sol = solve_general(dens, M0)
        ref = brute_force_oracle(dens, M0, 4000)
        assert sol.perimeter == pytest.approx(ref.perimeter, rel=1e-4)
        assert sol.perimeter <= ref.perimeter * (1.0 + 1e-12)


@pytest.mark.parametrize("a", [1e3, 1e6])
def test_solve_general_symmetric_far_above_critical_offset(a):
    # the shared 2a is left out of the compared objective; kept in, it swamps
    # |alpha|**p + beta**p and ties send the optimum to the origin
    sol = solve_general(Density(4, a), 1.0)
    assert sol.branch is IntervalBranch.SYMMETRIC
    assert sol.beta == -sol.alpha == solve_symmetric(Density(4, a), 1.0).beta


def test_newton_inverse_matches_bisection():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.1, 6.0, 40)
    a = np.where(rng.random(40) < 0.25, 0.0, rng.uniform(0.0, 3.0, 40))
    m = 10.0 ** rng.uniform(-6.0, 6.0, 40)
    for d in (1, 2, 3):  # the primitive, and the radial mass over k_d in 2D and 3D
        for pk, ak, mk in zip(p, a, m):
            q = float(radial_mass_inverse(pk, ak, mk, d))
            G = lambda x: x ** (pk + d) / (pk + d) + ak * x ** d / d - mk
            ref = bisect(G, 0.0, 2.0 * q + 1.0)
            assert q == pytest.approx(ref, rel=1e-14)
    # m = 0 (also with a = 0, where the derivative at the root vanishes)
    assert radial_mass_inverse(2.0, np.array([0.0, 0.5]), 0.0).tolist() == [0.0, 0.0]


def test_newton_inverse_cap_is_numeric_failure(monkeypatch):
    monkeypatch.setattr(density, "_NEWTON_CAP", 1)
    with pytest.raises(NumericError):
        radial_mass_inverse(4.0, 0.3, 1.0)


def _inverse_cases(seed, n=4000):
    """Random (p, a, m) arrays, a tenth of the offsets 0, with each row's cold root and start."""
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.5, 12.0))
    a = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-6.0, 6.0, n))
    m = 10.0 ** rng.uniform(-6.0, 6.0, n)
    e = 1.0 / (p + 1.0)
    with np.errstate(divide="ignore"):  # m/a is inf at a = 0, and fmin drops it
        start = np.fmin((m * (p + 1.0)) ** e, m / a)
    return rng, p, a, m, radial_mass_inverse(p, a, m), start


@pytest.mark.parametrize("seed", range(4))
def test_bounded_inverse_at_or_above_the_start_is_the_cold_inverse(seed):
    _, p, a, m, cold, start = _inverse_cases(seed)
    for upper in (start, np.nextafter(start, np.inf), 2.0 * start, np.inf):
        assert np.array_equal(radial_mass_inverse(p, a, m, upper=upper), cold)


def _ulps(x, ref):
    return np.abs(x - ref) / np.spacing(ref)


@pytest.mark.parametrize("seed", range(4))
def test_bounded_inverse_keeps_the_roots(seed):
    rng, p, a, m, cold, start = _inverse_cases(seed)
    # a root of a larger mass, as the section search passes: within 2 ulps of the cold root
    larger = radial_mass_inverse(p, a, m * (1.0 + 0.1 * rng.random(m.size)))
    for upper in (cold, larger):
        assert _ulps(radial_mass_inverse(p, a, m, upper=upper), cold).max() <= 2.0
    # any bound between the root and the start: each lands within 2 ulps of the true root
    upper = cold + rng.random(m.size) * (start - cold)
    assert _ulps(radial_mass_inverse(p, a, m, upper=upper), cold).max() <= 4.0


def test_bounded_inverse_ignores_nan_and_inf_bounds():
    _, p, a, m, cold, _ = _inverse_cases(7, n=6)
    upper = np.array([np.nan, np.inf, np.nan, np.inf, np.nan, np.inf])
    assert np.array_equal(radial_mass_inverse(p, a, m, upper=upper), cold)
    # a NaN mass keeps its NaN root under a finite bound
    assert math.isnan(radial_mass_inverse(2.0, 0.5, math.nan, upper=1.0))


def _spy_inverse(monkeypatch):
    """Record (shape of the roots, bounded, every root at or below its bound) per inverse call."""
    calls = []

    def spy(p_, a, m, d=1, upper=None):
        R = radial_mass_inverse(p_, a, m, d, upper=upper)
        calls.append((np.shape(R), upper is not None, upper is None or bool(np.all(R <= upper))))
        return R

    monkeypatch.setattr(interval1d, "radial_mass_inverse", spy)
    return calls


@pytest.mark.parametrize("p", [1.05, 1.5, 4.0, 9.0])
def test_bounded_inverses_stay_at_or_below_their_bounds(monkeypatch, p):
    calls = _spy_inverse(monkeypatch)
    avals = [0.0, 1e-3, 0.05, 0.2, 0.5, 3.0]
    solve_general_batch(p, avals, 1.0)
    # s_sym and the first section pass start cold; the later passes (33 nodes a row)
    # and every Newton step (one column of the rows still moving) start at the row's
    # beta at its bracket's left end, which lies at or above every root in the bracket
    assert [c[:2] for c in calls[:2]] == [((len(avals),), False), ((len(avals), 33), False)]
    passes, steps = calls[2:interval1d._SECTION_ITERS + 1], calls[interval1d._SECTION_ITERS + 1:]
    assert [c[:2] for c in passes] == [((len(avals), 33), True)] * (interval1d._SECTION_ITERS - 1)
    assert steps and all(len(shape) == 1 and bounded for shape, bounded, _ in steps)
    assert all(below for _, _, below in calls)


def test_solver_counts(monkeypatch):
    # deterministic kernel counts: three section passes of 33 nodes a row, then a
    # few Newton steps on the endpoint condition
    calls = _spy_inverse(monkeypatch)
    solve_general(Density(4, 0.2), 1.0)
    assert len(calls) <= 9
    for p in (1.5, 4.0):
        calls.clear()
        solve_general_batch(p, np.linspace(0.0, 1.0, 300), 1.0)
        assert sum(len(shape) == 2 for shape, _, _ in calls) == 3
        assert all(shape[-1] == 33 for shape, _, _ in calls if len(shape) == 2)
    # at a = 0 the perimeter rises on [0, s_sym): no Newton step; next to p = 1 a
    # root below the float range stops the row long before the cap on its steps
    calls.clear()
    solve_general(Density(300, 0.0), 1.0)
    assert len(calls) == 1 + interval1d._SECTION_ITERS
    calls.clear()
    assert solve_general(Density(1.01, 1e-6), 1.0).branch is IntervalBranch.AT_ORIGIN
    assert len(calls) < 1 + interval1d._SECTION_ITERS + interval1d._ROOT_ITERS // 2


def test_small_left_end_is_not_snapped_to_the_origin():
    # |alpha| = 6.1e-6 is below 1e-6 of beta, yet s = 0 lies 9.0e-9 above the
    # minimum that a log-spaced scan of 2e5 left ends finds
    from isodense.density import Dimension, critical_offset
    p, M0 = 1.1, 100.0
    a = 0.175 * critical_offset(p, Dimension(1), M0)
    sol = solve_general(Density(p, a), M0)
    s_sym = float(radial_mass_inverse(p, a, 0.5 * M0))
    s = np.geomspace(1e-12 * s_sym, s_sym, 200_000)
    beta = radial_mass_inverse(p, a, M0 - (s ** (p + 1.0) / (p + 1.0) + a * s))
    scan = float(np.min(s ** p + beta ** p)) + 2.0 * a
    assert sol.branch is IntervalBranch.ASYMMETRIC and sol.alpha < 0.0
    assert sol.perimeter <= scan * (1.0 + 1e-15)


@pytest.mark.parametrize("p", [30.0, 100.0, 300.0, 1000.0])
def test_large_p_at_zero_offset_is_one_ended(p):
    # at a = 0 the perimeter rises with the left end, so the origin wins; the scaled
    # objective's (p+1)-ulp rounding once let a noise pick win (p = 300: alpha -0.912)
    sol = solve_general(Density(p, 0.0), 1.0)
    assert sol.branch is IntervalBranch.AT_ORIGIN and sol.alpha == 0.0
    assert sol.beta == pytest.approx((p + 1.0) ** (1.0 / (p + 1.0)), rel=1e-14)


@pytest.mark.parametrize("M0", [0.3, 1.0, 3.0])
def test_forced_numeric_p2_matches_closed_form(M0):
    # the perimeter and the endpoints to rounding
    from isodense.density import Dimension, critical_offset
    avals = np.linspace(0.0, 1.2 * critical_offset(2.0, Dimension(1), M0), 121)
    for a, sol in zip(avals.tolist(), solve_general_batch(2.0, avals, M0)):
        ref = solve_p2(a, M0)
        s_sym = float(radial_mass_inverse(2.0, a, 0.5 * M0))
        assert abs(sol.perimeter - ref.perimeter) <= 1e-14 * ref.perimeter
        assert abs(sol.alpha - ref.alpha) <= 1e-13 * s_sym
        assert abs(sol.beta - ref.beta) <= 1e-13 * s_sym
        assert sol.branch is ref.branch


def _h(p, a, r):
    return r ** (p - 1.0) / (r ** p + a)


@settings(max_examples=80, deadline=None)
@given(st.floats(1.0, 8.0, exclude_min=True), st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8),
       st.floats(1e-3, 1e3))
def test_asymmetric_rows_meet_the_endpoint_condition(p, avals, M0):
    # stationarity of the perimeter at fixed mass: h(|alpha|) = h(beta)
    for a, sol in zip(avals, solve_general_batch(p, avals, M0)):
        F = Density(p, a).primitive
        assert abs(F(-sol.alpha) + F(sol.beta) - M0) <= density.MASS_RTOL * M0
        if sol.branch is IntervalBranch.ASYMMETRIC:
            h_beta = _h(p, a, sol.beta)
            assert abs(_h(p, a, -sol.alpha) - h_beta) <= 1e-12 * h_beta


def _section_reference(p, a, M0, passes):
    """Perimeters from the 32-point section search over s in [0, s_sym], run to (1/16)**passes.

    The best node then meets the exact s = 0 and symmetric candidates, which win
    ties within rounding, and is classified and snapped to its branch as the solver does:
    a near-symmetric row to s_sym, while a positive s keeps its place by the origin.
    """
    s_sym = radial_mass_inverse(p, a, 0.5 * M0)
    rows, col_a, col_s = np.arange(a.size), a[:, None], s_sym[:, None]

    def objective(t):
        s = t * col_s
        beta = radial_mass_inverse(p, col_a, M0 - (s ** (p + 1.0) / (p + 1.0) + col_a * s))
        return t ** p + (beta / col_s) ** p, beta

    lo, hi = np.zeros(a.size), np.ones(a.size)
    for _ in range(passes):
        t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 33)
        i = np.argmin(objective(t)[0], axis=1)
        lo, hi = t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, 32)]
    cand = np.stack([np.zeros(a.size), np.ones(a.size), t[rows, i]], axis=1)
    per, beta = objective(cand)
    pick = np.argmax(per <= per.min(axis=1, keepdims=True) * (1.0 + interval1d._TIE_RTOL), axis=1)
    out = []
    for k in rows:
        s, b = cand[k, pick[k]] * s_sym[k], beta[k, pick[k]]
        branch = interval1d._classify(s, b)
        if branch is IntervalBranch.SYMMETRIC:
            s = b = s_sym[k]
        out.append(s ** p + b ** p + 2.0 * a[k])
    return out


@pytest.mark.parametrize("p", [1.01, 1.05, 1.1, 1.2, 1.35, 1.5, 6.0, 20.0])
@pytest.mark.parametrize("M0", [0.01, 1.0, 100.0])
def test_no_row_above_a_fine_section_search(p, M0):
    # next to p = 1 the minimizer sits in the first cell, by the origin, where h
    # is steepest; the solver must not land above a search run to 2**-40 * s_sym
    from isodense.density import Dimension, critical_offset
    a_crit = critical_offset(p, Dimension(1), M0)
    avals = np.concatenate([np.linspace(0.0, 1.5 * a_crit, 61),
                            a_crit * np.array([1.0 - 1e-9, 1.0 + 1e-9])])
    ref = _section_reference(p, avals, M0, passes=10)
    for sol, r in zip(solve_general_batch(p, avals, M0), ref):
        assert sol.perimeter <= r * (1.0 + 1e-14)


def test_batches_split_into_blocks_without_changing_rows(monkeypatch):
    avals = [0.0, 0.1, 0.2, 0.3165, 0.5, 2.0, 1e3]
    whole = solve_general_batch(4.0, avals, 1.0)
    monkeypatch.setattr(interval1d, "_BLOCK", 2)
    assert solve_general_batch(4.0, avals, 1.0) == whole
    assert whole == [solve_general(Density(4.0, a), 1.0) for a in avals]
    halves = [0.0, 0.3, 1.0]
    assert solve_p_lt_1_batch(0.5, halves, 1.0) == [
        solve_p_lt_1(Density(0.5, a), 1.0) for a in halves]


def test_batch_rejects_bad_offsets_and_mass():
    with pytest.raises(ValueError):
        solve_general_batch(4.0, [0.1, -1.0], 1.0)
    with pytest.raises(ValueError):
        solve_general_batch(4.0, [0.1, math.inf], 1.0)
    with pytest.raises(ValueError):
        solve_p_lt_1_batch(0.5, [0.1], 0.0)


exponents = st.floats(1.0, 6.0, exclude_min=True)
offsets = st.floats(0.0, 3.0)
masses = st.floats(1e-3, 1e3)


@settings(max_examples=60, deadline=None)
@given(exponents, st.lists(offsets, min_size=1, max_size=6), masses, st.data())
def test_batched_row_equals_one_row_solve(p, avals, M0, data):
    k = data.draw(st.integers(0, len(avals) - 1))
    assert solve_general_batch(p, avals, M0)[k] == solve_general(Density(p, avals[k]), M0)


@settings(max_examples=60, deadline=None)
@given(exponents, offsets, masses)
def test_solve_general_mass_residual_and_oracle_bound(p, a, M0):
    dens = Density(p, a)
    sol = solve_general(dens, M0)
    F = dens.primitive
    assert abs(F(-sol.alpha) + F(sol.beta) - M0) <= 1e-12 * M0
    assert sol.perimeter <= brute_force_oracle(dens, M0, 1000).perimeter * (1.0 + 1e-12)


def test_oracle_rejects_small_grid():
    with pytest.raises(ValueError):
        brute_force_oracle(Density(2, 0.5), 1.0, 50)


# --- reduction pipeline -----------------------------------------------------

def test_reduce_two_positive_intervals():
    dens = Density(2, 0.25)
    ivs = [Interval(0.5, 1.0), Interval(1.5, 2.0)]
    out = reduce_intervals(dens, ivs)
    assert out.lo <= 0.0 <= out.hi
    assert mass1d(dens, out) == pytest.approx(
        sum(mass1d(dens, iv) for iv in ivs), rel=1e-10)
    assert perimeter1d(dens, out) < sum(perimeter1d(dens, iv) for iv in ivs)


def test_reduce_merge_across_origin_saves_2a():
    dens = Density(2, 0.25)
    ivs = [Interval(-1.0, -0.5), Interval(0.5, 1.0)]
    out = reduce_intervals(dens, ivs)
    assert out.lo < 0.0 < out.hi
    # compare with the two origin-anchored intervals the pipeline passes through
    t_neg = abs(out.lo)
    t_pos = out.hi
    p_pair = perimeter1d(dens, Interval(-t_neg, 0.0)) + perimeter1d(dens, Interval(0.0, t_pos))
    p_merged = perimeter1d(dens, out)
    assert p_pair - p_merged == pytest.approx(2.0 * dens.a, abs=1e-12)


def test_reduce_single_interval_containing_origin_is_fixed_point():
    dens = Density(0.5, 0.7)
    iv = Interval(-0.3, 0.8)
    out = reduce_intervals(dens, [iv])
    assert out == iv


def test_reduce_rejects_overlap_and_empty():
    dens = Density(2, 0.25)
    with pytest.raises(ValueError):
        reduce_intervals(dens, [Interval(0.0, 1.0), Interval(0.5, 2.0)])
    with pytest.raises(ValueError):
        reduce_intervals(dens, [])


def test_reduce_random_suite_conserves_mass_never_increases_perimeter():
    rng = np.random.default_rng(99)
    for _ in range(60):
        p = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        a = float(rng.uniform(0.05, 2.0))
        dens = Density(p, a)
        edges = np.sort(rng.uniform(-3.0, 3.0, size=2 * int(rng.integers(1, 5))))
        ivs = [Interval(float(edges[2 * i]), float(edges[2 * i + 1]))
               for i in range(len(edges) // 2)]
        total_mass = sum(mass1d(dens, iv) for iv in ivs)
        total_per = sum(perimeter1d(dens, iv) for iv in ivs)
        out = reduce_intervals(dens, ivs)
        assert mass1d(dens, out) == pytest.approx(total_mass, rel=1e-10)
        assert perimeter1d(dens, out) <= total_per * (1.0 + 1e-12)


# --- contour grid and curvatures --------------------------------------------

def test_contour_grid_corner_and_symmetry():
    # the contour CSV writer formats each symmetric pair once: it needs exact symmetry
    dens = Density(2, 0.7)
    g = contour_grid(dens, 1.5, 9)
    assert g.perimeter[0, 0] == pytest.approx(2 * dens.a)
    assert g.mass[0, 0] == 0.0
    # the second grid takes the divide-first branch where S**3 + B**3 overflows
    extent = 1.05 * float(radial_mass_inverse(2.0, 0.5, 7.5e307))
    with np.errstate(over="ignore"):
        g_ovf = contour_grid(Density(2, 0.5), extent, 40)
    assert math.isfinite(g_ovf.mass.max())
    for grid in (g, g_ovf):
        assert np.array_equal(grid.perimeter, grid.perimeter.T)
        assert np.array_equal(grid.mass, grid.mass.T)
    with pytest.raises(ValueError):
        contour_grid(dens, 1.0, 1)


@pytest.mark.parametrize("p, a, mass", [(2.0, 0.5, 2e307), (4.0, 0.3, 1.0), (0.5, 0.0, 1e300)])
def test_contour_grid_mass_keeps_its_bits_where_the_sum_fits(p, a, mass):
    dens = Density(p, a)
    extent = 1.05 * float(radial_mass_inverse(p, a, mass))
    g = contour_grid(dens, extent, 40)
    S, B = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    summed = (S ** (p + 1.0) + B ** (p + 1.0)) / (p + 1.0) + a * (S + B)
    assert np.array_equal(g.mass, summed)
    assert np.array_equal(g.perimeter, S ** p + B ** p + 2.0 * a)


def test_contour_p1_constraint_is_a_circle():
    a = 0.5
    dens = Density(1, a)
    g = contour_grid(dens, 2.0, 41)
    S, B = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    lhs = (S + a) ** 2 + (B + a) ** 2
    rhs = 2.0 * (g.mass + a * a)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_contour_curvature_signs():
    dd_per, dd_mass = contour_curvatures(Density(0.5, 0.5), 0.3, 0.8)
    assert dd_per > 0.0
    assert dd_mass < 0.0
    dd_per2, _ = contour_curvatures(Density(2, 0.25), 0.2, 1.2)
    assert dd_per2 < 0.0


def _central_second_diff(f, x, h):
    """Central second-difference approximation of f''(x)."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def test_contour_curvatures_match_finite_differences():
    dens = Density(0.5, 0.5)
    s0, b0 = 0.3, 0.8
    dd_per, dd_mass = contour_curvatures(dens, s0, b0)

    c_per = s0 ** dens.p + b0 ** dens.p
    beta_on_per = lambda s: (c_per - s ** dens.p) ** (1.0 / dens.p)
    fd_per = _central_second_diff(beta_on_per, s0, h=1e-4)
    assert dd_per == pytest.approx(fd_per, rel=1e-4)

    c_mass = dens.primitive(s0) + dens.primitive(b0)
    beta_on_mass = lambda s: float(radial_mass_inverse(dens.p, dens.a, c_mass - dens.primitive(s)))
    fd_mass = _central_second_diff(beta_on_mass, s0, h=1e-4)
    assert dd_mass == pytest.approx(fd_mass, rel=1e-4)
