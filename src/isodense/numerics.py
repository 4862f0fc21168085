"""NumericError and three scalar routines: bracketed bisection, bracket
growth and golden-section search.

Everything here is a stateless pure function.  No solver finds a root
here: every radius and endpoint fixed by a mass comes from
density.radial_mass_inverse.  bisect, grow_bracket and golden_min are
general-purpose tools (bisect also serves the tests as an oracle).
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "NumericError",
    "bisect",
    "grow_bracket",
    "golden_min",
]

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
