import math

import numpy as np
import pytest

from isodense import (
    Density,
    Dimension,
    brute_force_oracle,
    critical_mass,
    critical_offset,
    critical_offset_1d,
    evolve_2d,
    evolve_3d_axisym,
    gauss_legendre,
    solve_2d_p2,
    solve_3d_p2,
    solve_general,
    solve_p1,
    solve_p2,
    solve_p_lt_1,
    solve_symmetric,
    symmetric_ball,
)
from isodense.density import check_mass


def test_eval_examples():
    assert Density(2, 1)(0.0) == 1.0
    assert Density(2, 0.25)(2.0) == 4.25
    assert Density(0.5, 0.5)(4.0) == 2.5


def test_eval_rejects_negative_radius():
    with pytest.raises(ValueError):
        Density(2, 1)(-0.1)


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Density(0.0, 1.0)
    with pytest.raises(ValueError):
        Density(-1.0, 1.0)
    with pytest.raises(ValueError):
        Density(2.0, -0.1)
    Density(2.0, 0.0)  # a = 0 is allowed as a limit case


def test_primitive_examples():
    assert Density(1, 0.5).primitive(0.0) == 0.0
    assert Density(1, 0.5).primitive(1.0) == 1.0
    with pytest.raises(ValueError):
        Density(1, 0.5).primitive(-1.0)


def test_primitive_is_half_mass_of_symmetric_p2_solution():
    # quadrature oracle for the integral of rho over [0, q]
    dens = Density(2, 1)
    q = 0.46622
    oracle = gauss_legendre(lambda r: dens(r), 0.0, q, 64)
    F = dens.primitive(q)
    assert F == pytest.approx(oracle, rel=1e-13)
    assert F == pytest.approx(0.5, abs=1e-5)


def test_primitive_strictly_increasing_and_matches_density():
    rng = np.random.default_rng(3)
    for p, a in [(0.5, 0.3), (1.0, 0.0), (2.0, 1.0), (4.0, 0.05)]:
        dens = Density(p, a)
        qs = np.sort(rng.uniform(0.0, 3.0, size=12))
        vals = [dens.primitive(float(q)) for q in qs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        for q in qs:
            if q < 1e-2:
                continue
            h = 1e-5
            deriv = (dens.primitive(q + h) - dens.primitive(q - h)) / (2 * h)
            assert deriv == pytest.approx(dens(float(q)), rel=1e-6)


def test_log_density_second_derivative_signs():
    dens = Density(2, 1)
    assert dens.log_density_second_derivative(0.5) > 0.0
    assert dens.log_density_second_derivative(2.0) < 0.0
    assert dens.log_density_second_derivative(1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        dens.log_density_second_derivative(0.0)


def test_log_density_single_sign_change_above_p1():
    for p, a in [(1.5, 0.8), (2.0, 1.0), (4.0, 0.3)]:
        dens = Density(p, a)
        rc = dens.log_convex_radius()
        for r in np.linspace(0.05 * rc, 0.95 * rc, 9):
            assert dens.log_density_second_derivative(float(r)) > 0.0
        for r in np.linspace(1.05 * rc, 4.0 * rc, 9):
            assert dens.log_density_second_derivative(float(r)) < 0.0


def test_log_density_never_convex_at_or_below_p1():
    for p, a in [(0.3, 0.5), (0.5, 2.0), (1.0, 1.0)]:
        dens = Density(p, a)
        for r in np.geomspace(1e-3, 10.0, 25):
            assert dens.log_density_second_derivative(float(r)) <= 0.0


def test_log_convex_radius():
    assert Density(2, 1).log_convex_radius() == pytest.approx(1.0)
    assert Density(1, 5).log_convex_radius() is None
    assert Density(0.5, 5).log_convex_radius() is None
    assert Density(3, 0.5).log_convex_radius() == pytest.approx(1.0)


def test_critical_offset_printed_values():
    assert critical_offset(2, Dimension(1), 1.0) == pytest.approx(0.52, abs=0.005)
    assert critical_offset(2, Dimension(2), 1.0) == pytest.approx(
        math.sqrt(2.0 / (3.0 * math.pi)), rel=1e-14)
    assert critical_offset(2, Dimension(3), 1.0) == pytest.approx(
        (15.0 / (32.0 * math.pi)) ** 0.4, rel=1e-14)


def test_critical_offset_requires_p_above_1():
    with pytest.raises(ValueError):
        critical_offset(1.0, Dimension(1), 1.0)
    with pytest.raises(ValueError):
        critical_offset(0.5, Dimension(2), 1.0)
    with pytest.raises(ValueError):
        critical_offset_1d(1.0, 1.0)


def test_general_formula_specializes_to_1d_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = float(rng.uniform(1.01, 5.0))
        mass = float(rng.uniform(0.1, 10.0))
        assert critical_offset(p, Dimension(1), mass) == pytest.approx(
            critical_offset_1d(p, mass), rel=1e-12)


def test_critical_mass_inverse_consistency():
    assert critical_mass(Density(2, 0.5200), Dimension(1)) == pytest.approx(1.0, abs=2e-3)
    assert critical_mass(Density(2, 0.4607), Dimension(2)) == pytest.approx(1.0, abs=2e-3)
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = float(rng.uniform(1.01, 5.0))
        a = float(rng.uniform(1e-3, 2.0))
        d = Dimension(int(rng.integers(1, 4)))
        back = critical_offset(p, d, critical_mass(Density(p, a), d))
        assert back == pytest.approx(a, rel=1e-10)


def test_primitive_past_the_float_range_of_its_power():
    # beta**3 overflows at beta = 6.69e102 while beta**3 / 3 = 1e308 does not
    dens, beta = Density(2.0, 0.5), 6.69432950082e102
    assert dens.primitive(beta) == pytest.approx(beta * (beta * beta / 3.0) + 0.5 * beta,
                                                 rel=1e-15)
    # where q**(p+1) is finite the value keeps its bits
    assert dens.primitive(3.0) == 3.0 ** 3 / 3.0 + 0.5 * 3.0


@pytest.mark.parametrize("p", [1e300, 5e307, 1e308])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_critical_offset_and_mass_at_huge_p_approach_their_limits(p, d):
    # as p -> inf, a_crit -> M * d / (k_d * (d+1)) and critical_mass -> a * k_d * (d+1) / d;
    # k_d * p * (d+1) overflowed first, giving 0.0, NaN or inf
    dim = Dimension(d)
    limit = d / (dim.k_d * (d + 1))
    assert critical_offset(p, dim, 1.0) == pytest.approx(limit, rel=1e-12)
    assert critical_offset(p, dim, 3.0) == pytest.approx(3.0 * limit, rel=1e-12)
    m = critical_mass(Density(p, 1.0), dim)
    assert m == pytest.approx(1.0 / limit, rel=1e-12)
    assert critical_offset(p, dim, m) == pytest.approx(1.0, rel=1e-12)
    assert critical_offset(p, dim, critical_mass(Density(p, 0.2), dim)) == pytest.approx(
        0.2, rel=1e-12)


def test_dimension_constants():
    assert Dimension(1).k_d == 2.0
    assert Dimension(2).k_d == pytest.approx(2 * math.pi)
    assert Dimension(3).k_d == pytest.approx(4 * math.pi)
    with pytest.raises(ValueError):
        Dimension(4)


# every public entry point that takes a mass, its other arguments valid
_MASS_TAKERS = {
    "solve_p2": lambda m: solve_p2(0.2, m),
    "solve_p1": lambda m: solve_p1(0.2, m),
    "solve_p_lt_1": lambda m: solve_p_lt_1(Density(0.5, 0.2), m),
    "solve_symmetric": lambda m: solve_symmetric(Density(4, 1.0), m),
    "solve_general": lambda m: solve_general(Density(4, 0.3), m),
    "brute_force_oracle": lambda m: brute_force_oracle(Density(4, 0.3), m, 100),
    "symmetric_ball": lambda m: symmetric_ball(Density(4, 0.1), Dimension(2), m),
    "solve_2d_p2": lambda m: solve_2d_p2(0.2, m),
    "solve_3d_p2": lambda m: solve_3d_p2(0.2, m),
    "evolve_2d": lambda m: evolve_2d(Density(2, 0.2), m, n=64, max_iters=0),
    "evolve_3d_axisym": lambda m: evolve_3d_axisym(Density(2, 0.2), m, n=17, max_iters=0),
    "critical_offset": lambda m: critical_offset(4, Dimension(2), m),
    "critical_offset_1d": lambda m: critical_offset_1d(4, m),
}


@pytest.mark.filterwarnings("error")  # no RuntimeWarning on the way to the error
@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf, 0.0, -1.0], ids=str)
@pytest.mark.parametrize("solve", list(_MASS_TAKERS.values()), ids=list(_MASS_TAKERS))
def test_every_solver_rejects_a_mass_that_is_not_positive_and_finite(solve, mass):
    with pytest.raises(ValueError, match="mass must be positive and finite"):
        solve(mass)


def test_check_mass_accepts_extreme_finite_masses():
    for mass in (5e-324, 1e-300, 1.0, 1e300, np.float64(2.0)):
        check_mass(mass)
