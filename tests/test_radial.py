import math

import numpy as np
import pytest

from isodense import (
    BallBranch,
    Density,
    Dimension,
    Interval,
    circle_polar_profile,
    critical_offset,
    generalized_curvature,
    mass1d,
    offcenter_p2_2d,
    offcenter_p2_3d,
    offcenter_quadrature_2d,
    offcenter_quadrature_3d,
    solve_2d_p2,
    solve_3d_p2,
    solve_p2,
    solve_symmetric,
    symmetric_ball,
)


def test_symmetric_ball_2d_p2():
    sol = symmetric_ball(Density(2, 1), Dimension(2), 1.0)
    R_exact = math.sqrt(-1.0 + math.sqrt(1.0 + 2.0 / math.pi))
    assert sol.radius == pytest.approx(R_exact, rel=1e-13)
    assert sol.radius == pytest.approx(0.52849, abs=1e-5)
    assert sol.perimeter == pytest.approx(2 * math.pi * (R_exact ** 3 + R_exact), rel=1e-13)
    assert abs(sol.mass - 1.0) <= 1e-12


def test_symmetric_ball_3d_p2():
    sol = symmetric_ball(Density(2, 1), Dimension(3), 1.0)
    assert sol.radius == pytest.approx(0.5831, abs=1e-4)
    resid = 4 * math.pi * (sol.radius ** 5 / 5 + sol.radius ** 3 / 3) - 1.0
    assert abs(resid) <= 1e-12


def test_symmetric_ball_2d_a0():
    sol = symmetric_ball(Density(2, 0), Dimension(2), 1.0)
    assert sol.radius == pytest.approx((2.0 / math.pi) ** 0.25, rel=1e-13)


def test_symmetric_ball_mass_residual():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = float(rng.uniform(0.3, 5.0))
        a = float(rng.uniform(0.0, 2.0))
        M0 = float(rng.uniform(0.2, 4.0))
        dim = Dimension(int(rng.integers(2, 4)))
        sol = symmetric_ball(Density(p, a), dim, M0)
        R, d = sol.radius, dim.d
        mass = dim.k_d * R ** d * (R ** p / (p + d) + a / d)
        assert abs(mass - M0) <= 1e-12 * M0


def test_symmetric_ball_multiplier_matches_its_formula():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = float(rng.uniform(0.3, 5.0))
        a = float(rng.uniform(0.0, 2.0))
        dim = Dimension(int(rng.integers(2, 4)))
        sol = symmetric_ball(Density(p, a), dim, 1.0)
        R, d = sol.radius, dim.d
        lam = -((p + d - 1) * R ** p + (d - 1) * a) / (R * (R ** p + a))
        assert sol.lagrange_multiplier == pytest.approx(lam, rel=1e-14)


@pytest.mark.parametrize("a", [1e300, 1e308, 1.7e308])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [0.5, 2.0, 4.0])
def test_symmetric_ball_multiplier_at_huge_offsets(p, d, a):
    # R**p vanishes beside a, so the multiplier is -(d - 1) / R; formed as
    # written, (d - 1) * a overflowed to -inf in 3D once a passed ~9e307
    sol = symmetric_ball(Density(p, a), Dimension(d), 1.0)
    assert math.isfinite(sol.perimeter)
    assert sol.lagrange_multiplier == pytest.approx(-(d - 1) / sol.radius, rel=1e-14)


def test_symmetric_ball_rejects_dim1():
    with pytest.raises(ValueError):
        symmetric_ball(Density(2, 1), Dimension(1), 1.0)


def test_offcenter_p2_2d_unit_circle():
    per, mass = offcenter_p2_2d(1.0, 0.0, 0.0)
    assert per == pytest.approx(2 * math.pi, rel=1e-14)
    assert mass == pytest.approx(math.pi / 2, rel=1e-14)


def test_offcenter_p2_3d_unit_sphere():
    area, mass = offcenter_p2_3d(1.0, 0.0, 0.0)
    assert area == pytest.approx(4 * math.pi, rel=1e-14)
    assert mass == pytest.approx(12 * math.pi / 15, rel=1e-14)


def test_offcenter_formulas_match_quadrature():
    rng = np.random.default_rng(8)
    for _ in range(8):
        R = float(rng.uniform(0.3, 1.5))
        r0 = float(rng.uniform(0.0, 1.2))
        a = float(rng.uniform(0.0, 1.5))
        dens = Density(2, a)
        per, mass = offcenter_p2_2d(R, r0, a)
        per_q, mass_q = offcenter_quadrature_2d(dens, R, r0)
        assert per_q == pytest.approx(per, rel=1e-13)
        assert mass_q == pytest.approx(mass, rel=1e-13)
        area, mass3 = offcenter_p2_3d(R, r0, a)
        area_q, mass3_q = offcenter_quadrature_3d(dens, R, r0)
        assert area_q == pytest.approx(area, rel=1e-13)
        assert mass3_q == pytest.approx(mass3, rel=1e-13)


@pytest.mark.parametrize("p", [0.5, 4.5])
@pytest.mark.parametrize("d", [2, 3])
def test_offcenter_quadrature_centred_matches_symmetric_ball(p, d):
    dens = Density(p, 0.3)
    ball = symmetric_ball(dens, Dimension(d), 1.3)
    quadrature = offcenter_quadrature_2d if d == 2 else offcenter_quadrature_3d
    per, mass = quadrature(dens, ball.radius, 0.0)
    assert per == pytest.approx(ball.perimeter, rel=1e-14)
    assert mass == pytest.approx(ball.mass, rel=1e-14)


@pytest.mark.parametrize("R, r0", [(1.0, 0.4), (0.6, 0.5), (0.8, 1.3)])
def test_offcenter_quadrature_2d_matches_a_fine_polygon(R, r0):
    # p = 4.5 off the centre, the origin inside and outside: the polygon's O(n**-2) error
    from isodense import PolyCurve, weighted_mass_2d, weighted_perimeter_2d
    dens = Density(4.5, 0.2)
    curve = PolyCurve.circle(R, (r0, 0.0), 4096)
    per, mass = offcenter_quadrature_2d(dens, R, r0)
    assert weighted_perimeter_2d(dens, curve) == pytest.approx(per, rel=3e-6)
    assert weighted_mass_2d(dens, curve) == pytest.approx(mass, rel=3e-6)


def test_solve_2d_p2_offcentre():
    sol = solve_2d_p2(0.2, 1.0)
    assert sol.branch is BallBranch.OFF_CENTRE
    assert sol.radius == pytest.approx(0.67872, abs=1e-5)
    assert sol.center_offset == pytest.approx(0.51055, abs=1e-5)
    assert sol.perimeter == pytest.approx(4 * math.pi * sol.radius ** 3, rel=1e-13)
    assert sol.mass == pytest.approx(1.0, rel=1e-12)
    assert sol.lagrange_multiplier == pytest.approx(-2.0 / sol.radius, rel=1e-14)
    # consistency: R^2 = r0^2 + a
    assert sol.radius ** 2 == pytest.approx(sol.center_offset ** 2 + 0.2, abs=1e-12)


def test_solve_2d_p2_centred_and_junction():
    junction = solve_2d_p2(math.sqrt(2.0 / (3.0 * math.pi)), 1.0)
    assert junction.center_offset == pytest.approx(0.0, abs=1e-7)
    sol = solve_2d_p2(1.0, 1.0)
    assert sol.branch is BallBranch.CENTRED
    assert sol.radius == pytest.approx(0.52849, abs=1e-5)
    assert sol.perimeter == pytest.approx(4.2481, abs=1e-4)


def test_solve_2d_p2_perimeter_constant_below_critical():
    M0 = 1.0
    a_crit = math.sqrt(2.0 * M0 / (3.0 * math.pi))
    target = 4.0 * math.pi * (2.0 * M0 / (3.0 * math.pi)) ** 0.75
    for a in np.linspace(0.0, a_crit, 13):
        sol = solve_2d_p2(float(a), M0)
        assert sol.perimeter == pytest.approx(target, rel=1e-14)
    above = solve_2d_p2(np.nextafter(a_crit, 2.0), M0)
    assert above.perimeter == pytest.approx(target, rel=1e-9)


def test_solve_3d_p2_offcentre():
    sol = solve_3d_p2(0.3, 1.0)
    assert sol.branch is BallBranch.OFF_CENTRE
    assert sol.radius == pytest.approx(0.68353, abs=1e-5)
    assert sol.center_offset == pytest.approx(0.40892, abs=1e-5)
    assert sol.perimeter == pytest.approx(8 * math.pi * sol.radius ** 4, rel=1e-13)
    assert sol.lagrange_multiplier == pytest.approx(-3.0 / sol.radius, rel=1e-14)


def test_solve_3d_p2_junction_and_centred():
    a_crit = (15.0 / (32.0 * math.pi)) ** 0.4
    junction = solve_3d_p2(a_crit, 1.0)
    assert junction.center_offset == pytest.approx(0.0, abs=1e-7)
    # at the junction a_crit equals R^2
    assert a_crit == pytest.approx(junction.radius ** 2, rel=1e-12)
    sol = solve_3d_p2(1.0, 1.0)
    assert sol.branch is BallBranch.CENTRED
    assert sol.radius == pytest.approx(0.5831, abs=1e-4)


def test_solve_3d_p2_area_constant_below_critical():
    M0 = 1.0
    a_crit = (15.0 * M0 / (32.0 * math.pi)) ** 0.4
    target = 8.0 * math.pi * (15.0 * M0 / (32.0 * math.pi)) ** 0.8
    for a in np.linspace(0.0, a_crit, 13):
        assert solve_3d_p2(float(a), M0).perimeter == pytest.approx(target, rel=1e-14)
    above = solve_3d_p2(np.nextafter(a_crit, 2.0), M0)
    assert above.perimeter == pytest.approx(target, rel=1e-9)


def test_offcentre_discriminant_matches_critical_offset():
    # moving a ball by r0 under |x|**2 + a acts as raising the offset to
    # a + r0**2: each off-centre optimum has R**2 = a_crit, and its closed
    # form values are those of the centred ball at a + r0**2
    for d in (1, 2, 3):
        for M0 in (0.5, 1.0, 2.0):
            a_crit = critical_offset(2.0, Dimension(d), M0)
            for a in (0.0, 0.3 * a_crit, 0.9 * a_crit):
                if d == 1:
                    sol = solve_p2(a, M0)
                    R, r0 = 0.5 * (sol.beta - sol.alpha), 0.5 * (sol.beta + sol.alpha)
                    per, mass = sol.perimeter, mass1d(Density(2, a), Interval(sol.alpha, sol.beta))
                    centred = solve_symmetric(Density(2, a + r0 * r0), mass)
                    radius = centred.beta
                else:
                    sol = (solve_2d_p2 if d == 2 else solve_3d_p2)(a, M0)
                    R, r0 = sol.radius, sol.center_offset
                    offcentre = offcenter_p2_2d if d == 2 else offcenter_p2_3d
                    per, mass = offcentre(R, r0, a)
                    centred = symmetric_ball(Density(2, a + r0 * r0), Dimension(d), mass)
                    radius = centred.radius
                assert R * R == pytest.approx(a_crit, rel=1e-13)
                assert mass == pytest.approx(M0, rel=1e-12)
                assert radius == pytest.approx(R, rel=1e-13)
                assert centred.perimeter == pytest.approx(per, rel=1e-13)


def test_generalized_curvature_centred_circle():
    dens = Density(2, 0.5)
    R = 0.8
    val = generalized_curvature(dens, R, 0.0, 0.0)
    assert val == pytest.approx(1.0 / R + 2.0 * R / (R * R + 0.5), rel=1e-14)
    with pytest.raises(ValueError):
        generalized_curvature(dens, 0.0, 0.0, 0.0)


def test_generalized_curvature_constant_on_offcentre_optimum():
    a = 0.2
    sol = solve_2d_p2(a, 1.0)
    dens = Density(2, a)
    theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    r, rd, rdd = circle_polar_profile(sol.radius, sol.center_offset, theta)
    kappa = np.array([generalized_curvature(dens, float(r[i]), float(rd[i]), float(rdd[i]))
                      for i in range(len(theta))])
    spread = (kappa.max() - kappa.min()) / abs(kappa.mean())
    assert spread < 1e-6


def test_generalized_curvature_varies_on_ellipse():
    # 2:1 ellipse centred at the origin with the same weighted mass
    a = 0.2
    dens = Density(2, a)
    # mass of ellipse with semiaxes (A, A/2): 5*pi*A^4/32 + a*pi*A^2/2 = 1
    coef = 5.0 * math.pi / 32.0
    A2 = (-a * math.pi / 2.0 + math.sqrt((a * math.pi / 2.0) ** 2 + 4.0 * coef)) / (2.0 * coef)
    A = math.sqrt(A2)
    B = A / 2.0

    def radius(theta):
        return A * B / math.sqrt((B * math.cos(theta)) ** 2 + (A * math.sin(theta)) ** 2)

    h = 1e-4
    kappas = []
    for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
        r = radius(theta)
        rd = (radius(theta + h) - radius(theta - h)) / (2 * h)
        rdd = (radius(theta + h) - 2 * r + radius(theta - h)) / (h * h)
        kappas.append(generalized_curvature(dens, r, rd, rdd))
    kappas = np.array(kappas)
    spread = (kappas.max() - kappas.min()) / abs(kappas.mean())
    assert spread > 1e-2


def test_circle_polar_profile_requires_interior_origin():
    with pytest.raises(ValueError):
        circle_polar_profile(1.0, 1.5, 0.0)
