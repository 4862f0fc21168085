"""Circle and sphere solvers for the density r**p + a in 2D and 3D.

Centred balls are available for every p > 0: their radius is the root of
the radial mass equation k_d * G_d(R) = M0 from density.radial_mass_inverse,
for one offset or a whole sweep of them at once.  The p = 2 optimum
follows from them by the translation rule (_solve_p2_ball): a constant
radius while its centre slides toward the origin as the offset a grows.
The off-centre closed forms, the density-generalized curvature and the
quadrature versions of the off-centre boundary/mass integrals (checks
on the p = 2 solvers) live here too.

Note on the centred 3D mass equation: dimensional consistency requires
M0 = 4*pi*R**3 * (R**p/(p+3) + a/3), matching the generic
k_d * R**d * (R**p/(p+d) + a/d) form used for the critical mass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .density import (_TINY, MASS_RTOL, Density, Dimension, check_mass, critical_offset,
                      radial_mass_inverse)
from .numerics import NumericError, gauss_legendre_nodes

__all__ = [
    "BallBranch",
    "BallSolution",
    "symmetric_ball",
    "symmetric_ball_batch",
    "offcenter_p2_2d",
    "offcenter_p2_3d",
    "solve_2d_p2",
    "solve_3d_p2",
    "generalized_curvature",
    "circle_polar_profile",
    "offcenter_quadrature_2d",
    "offcenter_quadrature_3d",
]


class BallBranch(enum.Enum):
    CENTRED = "centred"
    OFF_CENTRE = "off_centre"


@dataclass(frozen=True)
class BallSolution:
    """A circle (d=2) or sphere (d=3) optimum.

    perimeter holds the weighted circumference in 2D and the weighted
    surface area in 3D.  center_offset is the distance of the centre from
    the origin (0 on the centred branch).
    """

    dim: Dimension
    radius: float
    center_offset: float
    perimeter: float
    mass: float
    branch: BallBranch
    lagrange_multiplier: Optional[float] = None

    def __post_init__(self):
        if self.dim.d not in (2, 3):
            raise ValueError("ball solutions exist only for d in {2, 3}")
        if self.radius <= 0.0 or self.center_offset < 0.0:
            raise ValueError("need radius > 0 and center_offset >= 0")
        if self.branch is BallBranch.CENTRED and self.center_offset != 0.0:
            raise ValueError("centred branch requires zero center offset")


def _times_powers(x: np.ndarray, R: np.ndarray, k: int) -> np.ndarray:
    """x * R**k as k products with R.

    For R <= 1 every partial product lies between x and x * R**k, so none
    underflows where R**k alone would but the result is a normal float.
    """
    for _ in range(k):
        x = x * R
    return x


def symmetric_ball_batch(p: float, dim: Dimension, a_values, M0: float) -> list[BallSolution]:
    """Centred balls of weighted mass M0 for d in {2, 3}, one per offset.

    Each radius solves k_d * R**d * (R**p/(p+d) + a/d) = M0, all of them in
    one radial_mass_inverse.  The perimeter k_d * R**(d-1) * (R**p + a) is
    d(mass)/dR, and the multiplier is -d(perimeter)/dR divided by it.
    Raises NumericError unless every radius meets M0 to a relative
    MASS_RTOL.
    """
    if dim.d not in (2, 3):
        raise ValueError("symmetric_ball requires d in {2, 3}")
    check_mass(M0)
    a = np.asarray(a_values, dtype=float).reshape(-1)
    for ak in a.tolist():
        Density(p, ak)  # validates p and every offset
    d, k = dim.d, dim.k_d
    R = radial_mass_inverse(p, a, M0 / k, d)
    with np.errstate(all="ignore"):  # an overflow or underflow fails the mass test
        Rp = R ** p
        mass = k * R ** d * (Rp / (p + d) + a / d)
        per = k * R ** (d - 1) * (Rp + a)
        # each term over Rp + a before the sum: (d - 1) * a alone overflows past ~9e307
        lam = -((p + d - 1) * (Rp / (Rp + a)) + (d - 1) * (a / (Rp + a))) / R
        low = R ** d < _TINY
        if low.any():  # R**d underflows, the mass need not: apply R one factor at a time
            mass = np.where(low, k * _times_powers(Rp / (p + d) + a / d, R, d), mass)
            per = np.where(low, k * _times_powers(Rp + a, R, d - 1), per)
    miss = ~(np.abs(mass - M0) <= MASS_RTOL * M0)
    if miss.any():
        i = int(np.argmax(miss))
        raise NumericError(f"centred ball radius {R[i]} misses mass {M0} by {mass[i] - M0}")
    return [BallSolution(dim, r, 0.0, pr, m, BallBranch.CENTRED, lm)
            for r, pr, m, lm in zip(R.tolist(), per.tolist(), mass.tolist(), lam.tolist())]


def symmetric_ball(dens: Density, dim: Dimension, M0: float) -> BallSolution:
    """Centred ball of weighted mass M0: one row of symmetric_ball_batch."""
    return symmetric_ball_batch(dens.p, dim, [dens.a], M0)[0]


def offcenter_p2_2d(R: float, r0: float, a: float) -> tuple[float, float]:
    """Weighted perimeter and mass of a circle at centre distance r0, for p = 2.

    P = 2*pi*(R**3 + R*r0**2 + R*a), M = (pi/2)*(R**4 + 2*R**2*r0**2 + 2*R**2*a).
    """
    if R <= 0.0:
        raise ValueError("radius must be positive")
    per = 2.0 * math.pi * (R ** 3 + R * r0 * r0 + R * a)
    mass = 0.5 * math.pi * (R ** 4 + 2.0 * R * R * r0 * r0 + 2.0 * R * R * a)
    return per, mass


def offcenter_p2_3d(R: float, r0: float, a: float) -> tuple[float, float]:
    """Weighted surface area and mass of a sphere at centre distance r0, for p = 2.

    S = 4*pi*(R**4 + R**2*r0**2 + R**2*a),
    M = (4*pi/15)*(3*R**5 + 5*R**3*r0**2 + 5*R**3*a).
    """
    if R <= 0.0:
        raise ValueError("radius must be positive")
    area = 4.0 * math.pi * (R ** 4 + R * R * r0 * r0 + R * R * a)
    mass = 4.0 * math.pi / 15.0 * (3.0 * R ** 5 + 5.0 * R ** 3 * r0 * r0 + 5.0 * R ** 3 * a)
    return area, mass


def _solve_p2_ball(dim: Dimension, a: float, M0: float) -> BallSolution:
    """Optimal ball for p = 2 in dimension dim, by the translation rule.

    For rho = |x|**2 + a, moving a ball by r0 has the effect of raising the
    offset to a + r0**2.  At or above a_crit = critical_offset(2, dim, M0)
    the optimum is the centred ball of symmetric_ball; below it, the
    centred ball of offset a_crit (whose radius has R**2 = a_crit) moved by
    r0 = sqrt(a_crit - a), with that ball's perimeter, mass and multiplier.
    """
    Density(2.0, a)  # validates a before it meets a_crit
    a_crit = critical_offset(2.0, dim, M0)
    ball = symmetric_ball(Density(2.0, max(a, a_crit)), dim, M0)
    if a >= a_crit:
        return ball
    return replace(ball, center_offset=math.sqrt(a_crit - a), branch=BallBranch.OFF_CENTRE)


def solve_2d_p2(a: float, M0: float) -> BallSolution:
    """Optimal circle for p = 2 in the plane: off-centre below a_crit = sqrt(2*M0/(3*pi))."""
    return _solve_p2_ball(Dimension(2), a, M0)


def solve_3d_p2(a: float, M0: float) -> BallSolution:
    """Optimal sphere for p = 2 in space: off-centre below a_crit = (15*M0/(32*pi))**(2/5)."""
    return _solve_p2_ball(Dimension(3), a, M0)


def generalized_curvature(dens: Density, r: float, r_dot: float, r_ddot: float) -> float:
    """Density-generalized curvature of a curve r(theta) about the origin.

    Classical polar curvature plus the log-density normal correction
    (d/dr log rho) * r / sqrt(r**2 + r_dot**2); constant along an optimal
    boundary.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    g = r * r + r_dot * r_dot
    if g <= 0.0:
        raise ValueError("degenerate point: r and r_dot both zero")
    kappa = (r * r + 2.0 * r_dot * r_dot - r * r_ddot) / g ** 1.5
    return kappa + dens.log_density_derivative(r) * r / math.sqrt(g)


def circle_polar_profile(R: float, r0: float, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polar profile r(theta) of a circle of radius R centred at (r0, 0).

    Valid when the origin is inside the circle (r0 < R).  Returns
    (r, dr/dtheta, d2r/dtheta2) evaluated analytically, suitable for
    checking constancy of the generalized curvature.
    """
    if not 0.0 <= r0 < R:
        raise ValueError("need 0 <= r0 < R so the origin lies inside the circle")
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    w = np.sqrt(R * R - r0 * r0 * s * s)
    r = r0 * c + w
    r_dot = -r0 * s - r0 * r0 * s * c / w
    r_ddot = -r0 * c - r0 * r0 * (c * c - s * s) / w - r0 ** 4 * s * s * c * c / w ** 3
    return r, r_dot, r_ddot


def offcenter_quadrature_2d(dens: Density, R: float, r0: float) -> tuple[float, float]:
    """Weighted perimeter and mass of an off-centre circle by quadrature.

    Evaluates the general boundary and area integrals for any p > 0 with
    tensor 64-point Gauss-Legendre rules; serves as the independent check
    on the p = 2 closed forms.
    """
    if R <= 0.0:
        raise ValueError("radius must be positive")
    p, a = dens.p, dens.a
    x, w = gauss_legendre_nodes(64)
    theta = math.pi * x          # theta in [-pi, pi]
    wt = math.pi * w
    dist = np.sqrt(R * R + r0 * r0 + 2.0 * R * r0 * np.cos(theta))
    per = float(np.sum(wt * R * (dist ** p + a)))

    q = 0.5 * R * (x + 1.0)      # q in [0, R]
    wq = 0.5 * R * w
    Q, T = np.meshgrid(q, theta, indexing="ij")
    WQ = np.outer(wq, wt)
    dist2 = np.sqrt(Q * Q + r0 * r0 + 2.0 * Q * r0 * np.cos(T))
    mass = float(np.sum(WQ * Q * (dist2 ** p + a)))
    return per, mass


def offcenter_quadrature_3d(dens: Density, R: float, r0: float) -> tuple[float, float]:
    """Weighted surface area and mass of an off-centre sphere by 64-point quadrature."""
    if R <= 0.0:
        raise ValueError("radius must be positive")
    p, a = dens.p, dens.a
    x, w = gauss_legendre_nodes(64)
    theta = math.pi * x
    wt = math.pi * w
    phi = 0.5 * math.pi * (x + 1.0)
    wp = 0.5 * math.pi * w

    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    WS = np.outer(wt, wp)
    dist = np.sqrt(R * R + r0 * r0 + 2.0 * R * r0 * np.sin(PH) * np.cos(TH))
    area = float(np.sum(WS * R * R * np.sin(PH) * (dist ** p + a)))

    q = 0.5 * R * (x + 1.0)
    wq = 0.5 * R * w
    Q = q[:, None, None]
    TH3 = theta[None, :, None]
    PH3 = phi[None, None, :]
    W3 = wq[:, None, None] * wt[None, :, None] * wp[None, None, :]
    dist3 = np.sqrt(Q * Q + r0 * r0 + 2.0 * Q * r0 * np.sin(PH3) * np.cos(TH3))
    mass = float(np.sum(W3 * Q * Q * np.sin(PH3) * (dist3 ** p + a)))
    return area, mass
