"""Gauss-Legendre reference quadrature for the tests' oracles."""

import numpy as np


def gauss_legendre(f, lo: float, hi: float, nodes: int) -> float:
    """Estimate of the integral of f over [lo, hi] from numpy's nodes-point rule.

    f must accept an ndarray of evaluation points.  Exact for polynomials
    of degree <= 2*nodes - 1.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return float(half * np.sum(w * np.asarray(f(mid + half * x), dtype=float)))
