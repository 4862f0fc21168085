"""Circle and sphere solvers for the density r**p + a in 2D and 3D.

Centred balls are available for every p > 0 via the radial mass equation;
off-centre closed forms exist for p = 2, where the optimal circle/sphere
keeps a constant radius while its centre slides toward the origin as the
offset a grows.  The density-generalized curvature diagnostic and the
quadrature versions of the off-centre boundary/mass integrals (used to
cross-check the closed forms) live here too.

Note on the centred 3D mass equation: dimensional consistency requires
M0 = 4*pi*R**3 * (R**p/(p+3) + a/3), matching the generic
k_d * R**d * (R**p/(p+d) + a/d) form used for the critical mass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import Density, Dimension, check_mass
from .numerics import NumericError, bisect, gauss_legendre_nodes, grow_bracket

__all__ = [
    "BallBranch",
    "BallSolution",
    "symmetric_ball",
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


def _centred_mass(dens: Density, d: int, R: float) -> float:
    p, a = dens.p, dens.a
    if d == 2:
        return 2.0 * math.pi * R * R * (R ** p / (p + 2.0) + a / 2.0)
    return 4.0 * math.pi * R ** 3 * (R ** p / (p + 3.0) + a / 3.0)


def _centred_perimeter(dens: Density, d: int, R: float) -> float:
    p, a = dens.p, dens.a
    if d == 2:
        return 2.0 * math.pi * (R ** (p + 1.0) + R * a)
    return 4.0 * math.pi * (R ** (p + 2.0) + R * R * a)


def _centred_multiplier(dens: Density, d: int, R: float) -> float:
    # -d(perimeter)/dR divided by d(mass)/dR; the latter equals the perimeter.
    p, a = dens.p, dens.a
    if d == 2:
        return -((p + 1.0) * R ** p + a) / (R ** (p + 1.0) + R * a)
    return -((p + 2.0) * R ** p + 2.0 * a) / (R ** (p + 1.0) + R * a)


def symmetric_ball(dens: Density, dim: Dimension, M0: float) -> BallSolution:
    """Centred ball of weighted mass M0, radius solved by bisection.

    Raises NumericError when the radius misses M0 by more than a relative
    1e-9 (the bisection from [0, 1] runs out of halvings for tiny M0).
    """
    if dim.d not in (2, 3):
        raise ValueError("symmetric_ball requires d in {2, 3}")
    check_mass(M0)
    d = dim.d

    def resid(R: float) -> float:
        return _centred_mass(dens, d, R) - M0

    hi = grow_bracket(resid, 1.0)
    R = bisect(resid, 0.0, hi)
    mass = _centred_mass(dens, d, R)
    if not abs(mass - M0) <= 1e-9 * M0:
        raise NumericError(f"centred ball radius {R} misses mass {M0} by {mass - M0}")
    return BallSolution(dim, R, 0.0, _centred_perimeter(dens, d, R),
                        mass, BallBranch.CENTRED, _centred_multiplier(dens, d, R))


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


def solve_2d_p2(a: float, M0: float) -> BallSolution:
    """Optimal circle for p = 2 in the plane.

    Below a_crit = sqrt(2*M0/(3*pi)) the circle straddles the origin with
    constant radius (2*M0/(3*pi))**(1/4), centre offset sqrt(R**2 - a) and
    perimeter 4*pi*R**3, independent of a.  Above a_crit it is centred,
    with R**2 = -a + sqrt(a**2 + 2*M0/pi).
    """
    check_mass(M0)
    if a < 0.0:
        raise ValueError("offset must be nonnegative")
    dim = Dimension(2)
    a_crit = math.sqrt(2.0 * M0 / (3.0 * math.pi))
    if a <= a_crit:
        R = (2.0 * M0 / (3.0 * math.pi)) ** 0.25
        r0 = math.sqrt(max(R * R - a, 0.0))
        per, mass = offcenter_p2_2d(R, r0, a)
        return BallSolution(dim, R, r0, per, mass, BallBranch.OFF_CENTRE, -2.0 / R)
    R = math.sqrt(-a + math.sqrt(a * a + 2.0 * M0 / math.pi))
    dens = Density(2.0, a)
    return BallSolution(dim, R, 0.0, _centred_perimeter(dens, 2, R),
                        _centred_mass(dens, 2, R), BallBranch.CENTRED,
                        _centred_multiplier(dens, 2, R))


def solve_3d_p2(a: float, M0: float) -> BallSolution:
    """Optimal sphere for p = 2 in space.

    Below a_crit = (15*M0/(32*pi))**(2/5) the sphere straddles the origin
    with constant radius (15*M0/(32*pi))**(1/5), centre offset
    sqrt(R**2 - a) and surface area 8*pi*R**4, independent of a.  Above
    a_crit it is centred, with the radius solved numerically.
    """
    check_mass(M0)
    if a < 0.0:
        raise ValueError("offset must be nonnegative")
    dim = Dimension(3)
    a_crit = (15.0 * M0 / (32.0 * math.pi)) ** 0.4
    if a <= a_crit:
        R = (15.0 * M0 / (32.0 * math.pi)) ** 0.2
        r0 = math.sqrt(max(R * R - a, 0.0))
        area, mass = offcenter_p2_3d(R, r0, a)
        return BallSolution(dim, R, r0, area, mass, BallBranch.OFF_CENTRE, -3.0 / R)
    return symmetric_ball(Density(2.0, a), dim, M0)


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


def offcenter_quadrature_2d(dens: Density, R: float, r0: float,
                            nodes: int = 64) -> tuple[float, float]:
    """Weighted perimeter and mass of an off-centre circle by quadrature.

    Evaluates the general boundary and area integrals for any p > 0 with
    tensor Gauss-Legendre rules; serves as the independent check on the
    p = 2 closed forms.
    """
    if R <= 0.0:
        raise ValueError("radius must be positive")
    p, a = dens.p, dens.a
    x, w = gauss_legendre_nodes(nodes)
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


def offcenter_quadrature_3d(dens: Density, R: float, r0: float,
                            nodes: int = 64) -> tuple[float, float]:
    """Weighted surface area and mass of an off-centre sphere by quadrature."""
    if R <= 0.0:
        raise ValueError("radius must be positive")
    p, a = dens.p, dens.a
    x, w = gauss_legendre_nodes(nodes)
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
