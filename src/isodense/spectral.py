"""Spectral boundary solver: Newton's method on the optimality (KKT) system.

The boundary is star-shaped about a centre (c, 0) on the x-axis and is
stored as its radius function about that point, a series in t = cos(phi)
of the polar angle phi with K coefficients, sampled at the K nodes of the
Gauss rule of the series' weight:

- 2D: a closed curve, mirror-symmetric about the x-axis, with r a
  Chebyshev series (cos(k*phi) = T_k(t)) at the Gauss-Chebyshev nodes,
  which are K equally spaced angles in (0, pi); the weights count the
  mirrored half twice.
- 3D: an axisymmetric surface about the x-axis, with r a Legendre series
  at the Gauss-Legendre nodes in t.  A smooth surface of revolution has r
  smooth in t, so the poles need no special case.

Only the family (its series and its Gauss rule) and the factor r**(d-2)
of the integrands differ between the dimensions (Boyd, Chebyshev and
Fourier Spectral Methods, 2nd ed., 2001).  The centre is an unknown in
place of the series' first-degree term (t), which is held at zero: that
term moves the boundary along the axis only to first order and deforms
it at second, while c translates it exactly.  At a large offset the translation costs
almost nothing against the deformation (1e-8 of the perimeter at
a*M**(-p/(p+d)) ~ 700 in 3D), and Newton steps in the first-degree term
crawled there.

Perimeter (surface area in 3D) and mass are both integrals over the
boundary: with x the boundary point and n its outward normal, div(|x|^p x)
= (p+d)|x|^p gives M = a*V + (1/(p+d)) * integral of |x|^p x.n, and V is
the same integral of x.n/d.  The Gauss rules are spectrally accurate for
smooth boundaries that avoid the origin (Trefethen, Is Gauss quadrature
better than Clenshaw-Curtis?, SIAM Review 50, 2008).  The integrands and
their first and second partials in (r, r', c) are evaluated together at
every node, so the Hessian is exact.

The problem is solved at unit mass through the exact scaling: the region
of mass M0 for offset a is M0**(1/(p+d)) times the unit-mass region for
offset a * M0**(-p/(p+d)).  Each Newton step (Nocedal & Wright, Numerical
Optimization, ch. 18) works in the tangent space of the mass constraint,
with the reduced Hessian of the Lagrangian made positive definite by
taking the absolute values of its eigenvalues; a trial moves r and c by
at most 0.3*min r, is scaled about the origin back onto the mass (an
exact power law in the scale), and is accepted only if r stays positive
and the perimeter does not rise beyond rounding.  A solution is certified
when its relative KKT residual |grad P - lambda grad M| / |grad P| is at
most 1e-8, r > 0 on a grid four times as fine as the nodes, and its mass
is M0 to a relative 1e-12.  The certificate is for the discretisation:
at a = 0 the optimum's boundary passes through the origin, where |x|**p
is smooth only for even p; for other p the series converges there
algebraically, from above, and a certified value moves with the node
count.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple  # cheaper to define at import than a dataclass

import numpy as np

from .density import MASS_RTOL, Density, Dimension, check_mass, radial_mass_inverse
from .numerics import NumericError

__all__ = ["SpectralOptimum", "spectral_2d", "spectral_3d_axisym"]

KKT_RTOL = 1e-8  # relative KKT residual of a certified optimum
_NEWTON_CAP = 50  # Newton steps per solve
_HALVINGS = 40  # backtracking halvings per Newton step
_STEP_CAP = 0.3  # a trial moves r at no node, nor c, by more than this fraction of min r
_RISE_RTOL = 1e-14  # a trial may raise the perimeter by rounding, not more


def _initial_center(dens: Density, R: float) -> float:
    """Centre offset of the start circle of radius R (the ball's radius).

    For p = 2 it is the optimum's centre sqrt(R**2 - a) (0 above the
    critical offset); otherwise half the radius, off the centred saddle.
    """
    if dens.p == 2.0:
        return max(0.0, math.sqrt(max(0.0, R * R - dens.a)))
    return 0.5 * R


def _unit_offset(dens: Density, M0: float, d: int) -> float:
    """The offset a * M0**(-p/(p+d)) of the unit-mass problem scaled by M0**(1/(p+d)) to M0.

    NumericError where it passes the float range.
    """
    if not dens.a:
        return 0.0
    with np.errstate(over="ignore"):  # inf, not an OverflowError
        a = float(dens.a * np.float64(M0) ** (-dens.p / (dens.p + d)))
    if a == math.inf:
        raise NumericError(f"offset {dens.a!r} at mass {M0!r} is past the float range"
                           " at unit mass")
    return a


class _Jet:
    """Values of f(r, r', c) at every node with the partials g[i] and h[i, j] in (r, r', c)."""

    __array_ufunc__ = None  # ndarray * _Jet defers to _Jet.__rmul__

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    @classmethod
    def variable(cls, x: np.ndarray, k: int) -> "_Jet":
        g = np.zeros((3, len(x)))
        g[k] = 1.0
        return cls(x, g, np.zeros((3, 3, len(x))))

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v + other.v, self.g + other.g, self.h + other.h)

    def __mul__(self, other):
        if isinstance(other, _Jet):
            gg = self.g[:, None] * other.g[None, :]
            return _Jet(self.v * other.v, self.g * other.v + self.v * other.g,
                        self.h * other.v + self.v * other.h + gg + gg.transpose(1, 0, 2))
        return _Jet(self.v * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    def __pow__(self, e: float) -> "_Jet":
        d1 = e * self.v ** (e - 1.0)
        d2 = e * (e - 1.0) * self.v ** (e - 2.0)
        return _Jet(self.v ** e, d1 * self.g,
                    d1 * self.h + d2 * self.g[:, None] * self.g[None, :])


class _Nodes(NamedTuple):
    """Quadrature nodes of one discretisation and its series basis.

    At node j, t = cos(phi) and the boundary point is (c + r*t,
    r*sqrt(1 - t**2)); with r' = dr/dt the arc element is
    r**(d-2) * sqrt(r**2 + (1 - t**2)*r'**2) and x.n is
    r**(d-2) * (r**2 + c*(r*t - (1 - t**2)*r')), both times the weight w.
    The unknowns z are the series coefficients with c in place of the
    first-degree one: basis[0], basis[1] and basis[2] map z to r, r' and
    c at the nodes, and fine maps z to r at 4K + 1 angles in [0, pi],
    the poles included: a radius that turns negative between the
    nodes describes a curve that crosses itself, which the quadrature
    cannot see.
    """

    d: int
    t: np.ndarray
    w: np.ndarray
    basis: np.ndarray
    fine: np.ndarray

    def positive(self, z: np.ndarray) -> bool:
        return bool(np.min(self.fine @ z) > 0.0)


_cheb, _leg = np.polynomial.chebyshev, np.polynomial.legendre
# (vander, der, val, gauss, scale) of the series in t = cos(phi): cos(k*phi) = T_k(t) in 2D.
# The Gauss rule of the family's weight, times scale, integrates over the boundary:
# 2 for the two mirrored halves of the curve, 2*pi for the revolution.
_FAMILY = {2: (_cheb.chebvander, _cheb.chebder, _cheb.chebval, _cheb.chebgauss, 2.0),
           3: (_leg.legvander, _leg.legder, _leg.legval, _leg.leggauss, 2.0 * math.pi)}


@functools.cache
def _nodes(d: int, K: int) -> _Nodes:
    if K < 4:
        raise ValueError(f"the spectral solver needs at least 4 nodes, got {K}")
    vander, der, _, gauss, scale = _FAMILY[d]
    t, w = gauss(K)
    r, dr = vander(t, K - 1), vander(t, K - 2) @ der(np.eye(K))
    fine = vander(np.cos(np.linspace(0.0, math.pi, 4 * K + 1)), K - 1)
    C = np.broadcast_to(np.eye(K)[1], r.shape)  # column 1, the first-degree term, is the centre
    r[:, 1] = dr[:, 1] = fine[:, 1] = 0.0
    return _Nodes(d, t, scale * w, np.stack([r, dr, C]), fine)


def _integrands(nodes: _Nodes, p: float, r, s, c):
    """Per-node parts of (P_p, P_0, M_p, V) for r, s = r' and c (arrays or _Jets).

    Perimeter P = P_p + a*P_0 and mass M = M_p + a*V; under a scaling by
    s about the origin they grow as s**(p+d-1), s**(d-1), s**(p+d), s**d.
    """
    d, t = nodes.d, nodes.t
    e, X, r2 = 1.0 - t * t, r * t + c, r * r
    qp = (X * X + r2 * e) ** (0.5 * p)  # |x|**p, |x|**2 a sum of squares
    rd = r if d == 3 else 1.0
    ell = rd * (r2 + s * s * e) ** 0.5
    flux = rd * (r2 + (r * t + s * (-e)) * c)
    return qp * ell, ell, qp * flux * (1.0 / (p + d)), flux * (1.0 / d)


def _values(nodes: _Nodes, p: float, z: np.ndarray) -> np.ndarray:
    """(P_p, P_0, M_p, V) of the boundary with unknowns z."""
    return np.array([float(nodes.w @ f) for f in _integrands(nodes, p, *(nodes.basis @ z))])


def _derivatives(nodes: _Nodes, p: float, a: float, z: np.ndarray):
    """Gradients and Hessians in z of the perimeter and the mass."""
    pp, p0, mp, vol = _integrands(nodes, p, *(_Jet.variable(x, k)
                                              for k, x in enumerate(nodes.basis @ z)))
    B = nodes.basis
    flat = B.reshape(-1, B.shape[2])  # rows (variable, node)
    out = []
    for f in (pp + p0 * a, mp + vol * a):
        out.append(flat.T @ (nodes.w * f.g).ravel())
        # the sum over variables a, b and nodes n of B[a, n, :] h[a, b, n] B[b, n, :]
        hB = ((nodes.w * f.h)[:, :, :, None] * B[None]).sum(axis=1)
        out.append(flat.T @ hB.reshape(flat.shape))
    return out


def _rescale(p: float, a: float, d: int, parts: np.ndarray) -> float:
    """The scale s about the origin that brings the mass s**(p+d)*M_p + a*s**d*V to 1."""
    _, _, mp, vol = parts
    k = 1.0 / (mp * (p + d))
    return float(radial_mass_inverse(p, a * vol * d * k, k, d))


def _perimeter(p: float, a: float, d: int, parts: np.ndarray, s: float) -> float:
    return s ** (p + d - 1.0) * parts[0] + a * s ** (d - 1.0) * parts[1]


class SpectralOptimum(NamedTuple):
    """A boundary from the spectral solver, at the requested mass.

    The boundary point at polar angle phi about (center, 0) is
    (center + r cos phi, r sin phi), r = radius(phi)[0], the series in
    cos(phi) (Chebyshev in 2D, Legendre in 3D) with coefficients coeffs;
    in 3D the surface is this profile (phi in [0, pi]) revolved about the
    x-axis.  perimeter is the weighted surface area in 3D.  residual is the
    relative KKT residual; certified says whether it is at most KKT_RTOL
    with r > 0 on the fine grid and the mass within a relative MASS_RTOL.
    """

    dim: int
    center: float
    coeffs: np.ndarray
    perimeter: float
    mass: float
    residual: float
    certified: bool

    def radius(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """r and dr/dphi at the polar angles phi."""
        der, val = _FAMILY[self.dim][1:3]
        t = np.cos(phi)
        return val(t, self.coeffs), -np.sin(phi) * val(t, der(self.coeffs))

    def sample(self, n: int) -> np.ndarray:
        """n boundary points equally spaced in arc length, as an (n, 2) array.

        2D: a closed counterclockwise loop from phi = 0.  3D: the profile
        from the right pole (phi = 0) to the left pole (phi = pi), both
        on the axis.
        """
        closed = self.dim == 2
        fine = np.linspace(0.0, (2.0 if closed else 1.0) * math.pi, 8 * n + 1)
        r, r_phi = self.radius(fine)
        ds = np.hypot(r, r_phi)
        arc = np.concatenate([[0.0], np.cumsum(0.5 * (ds[1:] + ds[:-1]) * (fine[1] - fine[0]))])
        phi = np.interp(np.linspace(0.0, arc[-1], n, endpoint=not closed), arc, fine)
        r = self.radius(phi)[0]
        V = np.column_stack([self.center + r * np.cos(phi), r * np.sin(phi)])
        if not closed:
            V[0, 1] = V[-1, 1] = 0.0
        return V


def _solve(dens: Density, M0: float, d: int, K: int) -> SpectralOptimum:
    check_mass(M0)
    nodes = _nodes(d, K)
    p = dens.p
    scale = M0 ** (1.0 / (p + d))
    with np.errstate(all="ignore"):  # a failed evaluation is not finite, and is refused
        a = _unit_offset(dens, M0, d)
        R = float(radial_mass_inverse(p, a, 1.0 / Dimension(d).k_d, d))
        z = np.zeros(nodes.basis.shape[2])
        z[:2] = R, _initial_center(Density(p, a), R)  # the circle or sphere, onto the mass
        parts = _values(nodes, p, z)
        s = _rescale(p, a, d, parts)
        z, per = s * z, _perimeter(p, a, d, parts, s)
        residual, steps = math.inf, 0
        while True:
            gP, HP, gM, HM = _derivatives(nodes, p, a, z)
            lam = (gP @ gM) / (gM @ gM)
            g = gP - lam * gM
            residual = float(np.linalg.norm(g) / np.linalg.norm(gP))
            if not residual > KKT_RTOL or steps == _NEWTON_CAP:
                break
            steps += 1
            T = np.linalg.qr(gM[:, None], mode="complete")[0][:, 1:]  # tangent basis
            try:
                ev, U = np.linalg.eigh(T.T @ (HP - lam * HM) @ T)
            except np.linalg.LinAlgError:
                break
            ev = np.maximum(np.abs(ev), 1e-14 * np.max(np.abs(ev)))
            step = -T @ (U @ ((U.T @ (T.T @ g)) / ev))
            move = np.maximum(np.max(np.abs(nodes.basis[0] @ step)), abs(step[1]))
            t = min(1.0, float(_STEP_CAP * np.min(nodes.basis[0] @ z) / move))
            for _ in range(_HALVINGS):
                trial = z + t * step
                if nodes.positive(trial):
                    trial_parts = _values(nodes, p, trial)
                    s = _rescale(p, a, d, trial_parts)
                    trial_per = _perimeter(p, a, d, trial_parts, s)
                    if trial_per <= per * (1.0 + _RISE_RTOL):
                        z, per = s * trial, trial_per
                        break
                t *= 0.5
            else:
                break  # no trial along the step is acceptable
        parts = _values(nodes, p, z)
        mass = parts[2] + a * parts[3]
        certified = residual <= KKT_RTOL and nodes.positive(z) and abs(mass - 1.0) <= MASS_RTOL
        coeffs = z * scale
        center, coeffs[1] = coeffs[1], 0.0
        return SpectralOptimum(d, center, coeffs,
                               _perimeter(p, a, d, parts, 1.0) * scale ** (p + d - 1.0),
                               mass * M0, residual, bool(certified))


def spectral_2d(dens: Density, M0: float, nodes: int = 17) -> SpectralOptimum:
    """Minimum weighted perimeter at weighted mass M0 in the plane, by Newton-KKT.

    nodes Gauss-Chebyshev points in cos(phi) carry a Chebyshev series of
    degree nodes-1; the start is a circle of the centred ball's radius
    about (c, 0), with c as for the polygon evolver.
    """
    return _solve(dens, M0, 2, nodes)


def spectral_3d_axisym(dens: Density, M0: float, nodes: int = 24) -> SpectralOptimum:
    """Minimum weighted surface area at weighted mass M0, axisymmetric about the x-axis.

    nodes Gauss-Legendre points in cos(phi) carry a Legendre series of
    degree nodes-1; the start is the sphere as in spectral_2d.
    """
    return _solve(dens, M0, 3, nodes)
