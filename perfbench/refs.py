"""Independent references for checking isodense outputs.

The closed forms are the paper's, written out again here rather than
taken from the package, so a defect in a package solver cannot hide
behind the same defect in its reference.  Roots of the monotone
polynomials that some closed forms leave implicit are found by Newton
from above, which converges monotonically for these convex equations.
"""

from __future__ import annotations

import math

import numpy as np

# Gauss-Legendre rule on [0, 1], exact for polynomials of degree <= 15.
_X, _W = np.polynomial.legendre.leggauss(8)
_U = 0.5 * (_X + 1.0)
_WU = 0.5 * _W


def _newton_from_above(g, dg, x: float) -> float:
    """Root of a convex increasing g, starting from x with g(x) >= 0."""
    for _ in range(200):
        step = g(x) / dg(x)
        if not step > 0.0:
            return x
        x_new = x - step
        if x_new >= x:
            return x
        x = x_new
    return x


def perimeter_1d_p_half(a: float, mass: float) -> float:
    """p = 1/2: one end at the origin, sqrt(beta) solves (2/3)s^3 + a s^2 = M."""
    s = _newton_from_above(lambda s: 2.0 / 3.0 * s ** 3 + a * s * s - mass,
                           lambda s: 2.0 * s * s + 2.0 * a * s,
                           (1.5 * mass) ** (1.0 / 3.0))
    return s + 2.0 * a  # beta**(1/2) = s


def perimeter_1d_p1(a: float, mass: float) -> float:
    """p = 1: perimeter a + sqrt(a^2 + 2M)."""
    return a + math.sqrt(a * a + 2.0 * mass)


def perimeter_1d_p2(a: float, mass: float) -> float:
    """p = 2: (3M)^(2/3) below a_crit = (3M)^(2/3)/4, else the symmetric interval."""
    c = (3.0 * mass) ** (2.0 / 3.0)
    if c - 4.0 * a > 0.0:
        return c
    beta = _newton_from_above(lambda b: 2.0 / 3.0 * b ** 3 + 2.0 * a * b - mass,
                              lambda b: 2.0 * b * b + 2.0 * a,
                              (1.5 * mass) ** (1.0 / 3.0))
    return 2.0 * beta * beta + 2.0 * a


def perimeter_2d_p2(a: float, mass: float) -> float:
    """p = 2 in the plane below a_crit = sqrt(2M/(3 pi)): 4 pi R^3, R^4 = 2M/(3 pi)."""
    r4 = 2.0 * mass / (3.0 * math.pi)
    if a > math.sqrt(r4):
        raise ValueError("reference covers the off-centre branch only")
    return 4.0 * math.pi * r4 ** 0.75


def perimeter_3d_p2(a: float, mass: float) -> float:
    """p = 2 in space below a_crit = R^2: area 8 pi R^4, R^5 = 15M/(32 pi)."""
    r5 = 15.0 * mass / (32.0 * math.pi)
    if a > r5 ** 0.4:
        raise ValueError("reference covers the off-centre branch only")
    return 8.0 * math.pi * r5 ** 0.8


def centred_ball(d: int, p: float, a: float, radius: float) -> tuple[float, float]:
    """Weighted boundary measure and mass of the centred ball of the given radius."""
    k = 2.0 * math.pi if d == 2 else 4.0 * math.pi
    per = k * radius ** (d - 1) * (radius ** p + a)
    mass = k * radius ** d * (radius ** p / (p + d) + a / d)
    return per, mass


def mass_1d(p: float, a: float, alpha: float, beta: float) -> float:
    """Weighted mass of [alpha, beta] with alpha <= 0 <= beta."""
    def prim(q):
        return q ** (p + 1.0) / (p + 1.0) + a * q
    return prim(beta) + prim(-alpha)


def invert_primitive(p: float, a: float, mass: float) -> float:
    """q >= 0 with q^(p+1)/(p+1) + a q = mass."""
    return _newton_from_above(lambda q: q ** (p + 1.0) / (p + 1.0) + a * q - mass,
                              lambda q: q ** p + a,
                              (mass * (p + 1.0)) ** (1.0 / (p + 1.0)))


def revolved_area(p: float, a: float, profile: np.ndarray) -> float:
    """Weighted area of the surface swept by a meridian profile about the x-axis.

    The sum over segments of 2 pi y (r^p + a) ds, with y and r taken at
    the segment midpoint: the discrete functional the evolver minimises.
    """
    A, B = profile[:-1], profile[1:]
    ds = np.sqrt(np.sum((B - A) ** 2, axis=1))
    mid = 0.5 * (A + B)
    r = np.sqrt(np.sum(mid ** 2, axis=1))
    return 2.0 * math.pi * float(np.sum(mid[:, 1] * (r ** p + a) * ds))


def revolved_mass(p: float, a: float, profile: np.ndarray) -> float:
    """Weighted volume of the solid swept by a meridian profile about the x-axis.

    profile runs from one pole to the other through y > 0.  The region
    under it is fanned into signed triangles from the origin and each is
    integrated with a collapsed tensor Gauss rule, which is exact for the
    even integer exponents p = 2 and 4 used here.  The closing segment lies
    on the axis and contributes nothing.
    """
    A, B = profile[:-1], profile[1:]
    cross = A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]
    # point u * (A + t (B - A)) of the triangle (0, A, B), Jacobian u * cross
    P = A[None, :, :] + _U[:, None, None] * (B - A)[None, :, :]
    total = 0.0
    for u, wu in zip(_U, _WU):
        Q = u * P
        r2 = Q[:, :, 0] ** 2 + Q[:, :, 1] ** 2
        f = 2.0 * math.pi * Q[:, :, 1] * (r2 ** (0.5 * p) + a)
        total += wu * u * float(np.sum(_WU[:, None] * f * cross[None, :]))
    return total
