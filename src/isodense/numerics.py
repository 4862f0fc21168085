"""Shared numerical kernels: bracketed bisection, golden-section search and
Gauss-Legendre quadrature.

Everything here is a stateless pure function.  No solver finds a root
here: every radius and endpoint fixed by a mass comes from
density.radial_mass_inverse.  bisect, grow_bracket and golden_min are
general-purpose tools (bisect also serves the tests as an oracle).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "NumericError",
    "bisect",
    "grow_bracket",
    "golden_min",
    "gauss_legendre",
    "gauss_legendre_nodes",
]

# Supported Gauss-Legendre orders: 4 and 7 for the evolver's fan rule, 16 and 64 for
# the tests' gauss_legendre oracles.
GL_NODE_COUNTS = (4, 7, 16, 64)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_BISECT_CAP = 200  # halvings before bisect returns the midpoint


class NumericError(RuntimeError):
    """An iterative scheme failed to converge."""


def bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by bisection.

    f(lo) and f(hi) must differ in sign.  The bracket is halved until it
    is tight to floating-point resolution, or the midpoint is returned
    after _BISECT_CAP halvings.
    """
    if lo > hi:
        lo, hi = hi, lo
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    mid = 0.5 * (lo + hi)
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return mid


def grow_bracket(f: Callable[[float], float], hi0: float,
                 max_grow: int = 200) -> float:
    """Smallest hi = hi0 * 2^k with f(hi) >= 0, for f increasing from f(0) < 0."""
    hi = hi0
    for _ in range(max_grow):
        if f(hi) >= 0.0:
            return hi
        hi *= 2.0
    raise NumericError("bracket growth failed: f never changed sign")


def golden_min(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi] by golden-section search.

    Returns (x, f(x)).  Endpoints are also probed so boundary minima are
    returned exactly; for non-unimodal f the result is the best point seen.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    n = max(1, int(math.ceil(math.log(max(tol, 1e-300) / h) / math.log(_INVPHI)))) if h > tol else 1
    for _ in range(n):
        if fc < fd:
            b, d, fd = d, c, fc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h *= _INVPHI
            d = a + _INVPHI * h
            fd = f(d)
    best_x, best_f = (c, fc) if fc < fd else (d, fd)
    for x in (lo, hi):
        fx = f(x)
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def gauss_legendre_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre abscissae and weights on [-1, 1] for a supported order."""
    if nodes not in GL_NODE_COUNTS:
        raise ValueError(f"unsupported node count {nodes}; choose from {GL_NODE_COUNTS}")
    return _GL_CACHE[nodes]


_GL_CACHE = {n: np.polynomial.legendre.leggauss(n) for n in GL_NODE_COUNTS}


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                   nodes: int) -> float:
    """Gauss-Legendre estimate of the integral of f over [lo, hi].

    f must accept an ndarray of evaluation points.  Exact for polynomials
    of degree <= 2*nodes - 1.
    """
    x, w = gauss_legendre_nodes(nodes)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return float(half * np.sum(w * np.asarray(f(mid + half * x), dtype=float)))

