"""The radial density rho(r) = r**p + a and the quantities derived from it.

The offset a interpolates between the pure power density (a = 0) and
densities that are log-convex near the origin (large a).  One-dimensional
callers evaluate at |x|.

Convention: the boundary-measure constant k_d is the weighted count of
boundary points of a centred ball, so k_1 = 2 (an interval [-R, R] has two
endpoints and mass 2 * integral of rho over [0, R]), k_2 = 2*pi, k_3 = 4*pi.
With k_1 = 2 the general-dimension critical offset specializes exactly to
the dedicated one-dimensional formula.

A centred ball of radius R (the interval [-R, R] when d = 1) has mass
k_d * G_d(R) with G_d(R) = R**(p+d)/(p+d) + a*R**d/d; G_1 is the
primitive.  radial_mass_inverse is the package's one inverse of G_d: every
centred ball, symmetric interval and one-sided interval endpoint is a
root of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "MASS_RTOL",
    "Density",
    "Dimension",
    "check_mass",
    "radial_mass_inverse",
    "critical_offset",
    "critical_offset_1d",
    "critical_mass",
]

_K_D = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
MASS_RTOL = 1e-12  # relative mass residual every returned solution meets
_TINY = np.finfo(float).tiny  # the smallest normal float
_NEWTON_CAP = 100  # Newton steps allowed per inverse; from its start it needs under ten


def check_mass(mass: float) -> None:
    """Raise ValueError unless the mass is positive and finite (NaN is neither)."""
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")


@dataclass(frozen=True)
class Dimension:
    """Ambient dimension d in {1, 2, 3} with its boundary constant k_d."""

    d: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")

    @property
    def k_d(self) -> float:
        return _K_D[self.d]


@dataclass(frozen=True)
class Density:
    """rho(r) = r**p + a with exponent p > 0 and offset a >= 0.

    Instances are immutable and safe to share across threads.  a = 0 is
    permitted as a limiting case even though most results assume a > 0.
    """

    p: float
    a: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 0.0):
            raise ValueError(f"exponent p must be positive and finite, got {self.p}")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"offset a must be nonnegative and finite, got {self.a}")

    def __call__(self, r):
        """Pointwise density r**p + a at radius r >= 0 (accepts ndarrays)."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise ValueError("radius must be nonnegative")
        out = r ** self.p + self.a
        return float(out) if out.ndim == 0 else out

    def primitive(self, q: float) -> float:
        """F(q) = integral of rho over [0, q] = q**(p+1)/(p+1) + a*q, q >= 0."""
        if q < 0.0:
            raise ValueError("q must be nonnegative")
        try:
            head = q ** (self.p + 1.0) / (self.p + 1.0)
        except OverflowError:  # q**(p+1) past the float range, though its quotient need not be
            head = q * (q ** self.p / (self.p + 1.0))
        return head + self.a * q

    def log_density_second_derivative(self, r: float) -> float:
        """Second derivative of log(rho) at r > 0.

        Positive where r**p < a*(p-1), i.e. where the density is log-convex.
        """
        if r <= 0.0:
            raise ValueError("r must be positive")
        rp = r ** self.p
        return self.p * r ** (self.p - 2.0) * (self.a * (self.p - 1.0) - rp) / (rp + self.a) ** 2

    def log_density_derivative(self, r: float) -> float:
        """d/dr of log(rho) at r > 0: p * r**(p-1) / (r**p + a)."""
        if r <= 0.0:
            raise ValueError("r must be positive")
        return self.p * r ** (self.p - 1.0) / (r ** self.p + self.a)

    def log_convex_radius(self) -> Optional[float]:
        """Radius of the ball on which rho is log-convex: (a*(p-1))**(1/p).

        Returns None for p <= 1, where the density is nowhere log-convex.
        """
        if self.p <= 1.0:
            return None
        return (self.a * (self.p - 1.0)) ** (1.0 / self.p)


def radial_mass_inverse(p: float, a, m, d: int = 1) -> np.ndarray:
    """R >= 0 with G_d(R) = R**(p+d)/(p+d) + a*R**d/d = m, elementwise over arrays a and m >= 0.

    Newton starts above the root, at min((m*(p+d))**(1/(p+d)), (m*d/a)**(1/d)),
    the latter formed as (m*d)**(1/d) / a**(1/d) where m*d/a falls below
    the normal range; G_d is convex and increasing on R >= 0, so the
    iterates fall monotonically.  An element freezes at the first step
    that does not lower it (that step repeats on every later pass), within
    rounding of its root.  Raises NumericError if some element is still falling after
    _NEWTON_CAP steps.
    """
    m = np.asarray(m, dtype=float)
    a_d = a / d
    with np.errstate(all="ignore"):  # m*d/a is inf or nan at a = 0; fmin drops either
        q = m * d / a
        low = q < _TINY  # a tiny mass over a huge offset: q underflows, its d-th root need not
        q = q ** (1.0 / d)
        if low.any():
            q = np.where(low, (m * d) ** (1.0 / d) / a ** (1.0 / d), q)
        R = np.fmin((m * (p + d)) ** (1.0 / (p + d)), q)
        for _ in range(_NEWTON_CAP):
            Rp = R ** p
            # (G_d - m) / G_d' with R**(d-1) divided out of G_d' = R**(d-1) * (R**p + a)
            m_R = m if d == 1 else m * R ** (1 - d)
            R_new = R - (R * (Rp / (p + d) + a_d) - m_R) / (Rp + a)
            if not (R_new < R).any():
                return R
            R = np.fmin(R, R_new)
    # imported here: a top-level import loads numerics (and builds its Gauss-Legendre
    # tables) first, which raised the peak RSS of `import isodense.cli` by 0.5 MB
    from .numerics import NumericError
    raise NumericError(f"radial mass inverse did not settle in {_NEWTON_CAP} Newton steps")


def _ball_ratios(p: float, dim: Dimension) -> tuple[float, float]:
    """k_d*p*(d+1) / (d*(p+d)) and its reciprocal, both finite at every p.

    Both terms are scaled by 2**-8, which keeps the bits of their ratios.
    """
    d = dim.d
    num, den = dim.k_d * (p / 256.0) * (d + 1), d * (p / 256.0 + d / 256.0)
    return num / den, den / num


def critical_offset(p: float, dim: Dimension, mass: float) -> float:
    """Smallest offset a for which the centred ball of the given mass is optimal.

    Defined for p > 1 only; below that the density is never log-convex and
    no symmetric regime exists.
    """
    if p <= 1.0:
        raise ValueError("critical offset is defined only for p > 1")
    check_mass(mass)
    d = dim.d
    base = _ball_ratios(p, dim)[1]
    return base ** (p / (p + d)) * (p - 1.0) ** (-d / (p + d)) * mass ** (p / (p + d))


def critical_offset_1d(p: float, mass: float) -> float:
    """Dedicated 1D form of the critical offset: ((p+1)/(4p))^(p/(p+1)) (p-1)^(-1/(p+1)) M^(p/(p+1))."""
    if p <= 1.0:
        raise ValueError("critical offset is defined only for p > 1")
    check_mass(mass)
    return ((p + 1.0) / (4.0 * p)) ** (p / (p + 1.0)) * (p - 1.0) ** (-1.0 / (p + 1.0)) \
        * mass ** (p / (p + 1.0))


def critical_mass(dens: Density, dim: Dimension) -> float:
    """Mass of the centred ball with radius equal to the log-convexity radius.

    Exact algebraic inverse of critical_offset: feeding the result back
    into critical_offset returns dens.a.  Returns inf where the mass lies
    past the float range.
    """
    p, a = dens.p, dens.a
    if p <= 1.0:
        raise ValueError("critical mass is defined only for p > 1")
    d = dim.d
    try:  # a ** ((p + d) / p) raises OverflowError past the float range
        scaled = a ** ((p + d) / p)
    except OverflowError:
        return math.inf
    return _ball_ratios(p, dim)[0] * (p - 1.0) ** (d / p) * scaled
