"""The radial density rho(r) = r**p + a and the quantities derived from it.

The offset a interpolates between the pure power density (a = 0) and
densities that are log-convex near the origin (large a).  One-dimensional
callers evaluate at |x|.

Convention: the boundary-measure constant k_d is the weighted count of
boundary points of a centred ball, so k_1 = 2 (an interval [-R, R] has two
endpoints and mass 2 * integral of rho over [0, R]), k_2 = 2*pi, k_3 = 4*pi.
With k_1 = 2 the general-dimension critical offset specializes exactly to
the dedicated one-dimensional formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Density",
    "Dimension",
    "check_mass",
    "critical_offset",
    "critical_offset_1d",
    "critical_mass",
]

_K_D = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


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
        return q ** (self.p + 1.0) / (self.p + 1.0) + self.a * q

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


def critical_offset(p: float, dim: Dimension, mass: float) -> float:
    """Smallest offset a for which the centred ball of the given mass is optimal.

    Defined for p > 1 only; below that the density is never log-convex and
    no symmetric regime exists.
    """
    if p <= 1.0:
        raise ValueError("critical offset is defined only for p > 1")
    check_mass(mass)
    d = dim.d
    base = d * (p + d) / (dim.k_d * p * (d + 1))
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
    into critical_offset returns dens.a.
    """
    p, a = dens.p, dens.a
    if p <= 1.0:
        raise ValueError("critical mass is defined only for p > 1")
    d = dim.d
    return dim.k_d * p * (d + 1) / (d * (p + d)) * (p - 1.0) ** (d / p) * a ** ((p + d) / p)
