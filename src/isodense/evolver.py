"""Constrained curve evolution: weighted-perimeter descent at fixed weighted mass.

A closed polygonal curve in the plane (or an axisymmetric profile revolved
about the x-axis in 3D) is driven by projected gradient descent: the step
direction is the perimeter gradient with its mass-gradient component
removed, and each trial move is followed by chord steps that restore the
mass by uniform offsets along the iterate's vertex normals, with the
iterate's mass slope along them (Newton steps with a fresh gradient where
a chord step does not help).  Steps are accepted only if the weighted
perimeter decreases and the curve stays star-shaped (which guarantees it
stays simple).

A run is solved at unit mass and scaled back: the region of mass M0 for
offset a is M0**(1/(p+d)) times the unit-mass region for offset
a * M0**(-p/(p+d)), so no tolerance, step or floor depends on M0.  It
starts from the spectral optimum (isodense.spectral) sampled at the run's
vertex count when that solve is certified, and otherwise from a
displaced circle or sphere; the descent is the same either way.

All functionals are discretized consistently with their analytic
gradients: perimeter by edge midpoints, mass by fanning signed triangles
from the origin with a tensor Gauss-Legendre rule (7 radial x 4 angular
nodes per triangle), so the fan works even when the region does not
contain the origin.

One set of kernels and one driver serve both states, a polyline whose
dimension d picks its edges (a closed loop in 2D, an open pole-to-pole
profile in 3D), its revolution weight (1 in 2D, 2*pi*y in 3D) and, in
3D, the poles held on the axis.  Every function reads d from the
polyline's record and none takes a kernel as an argument.  The revolved
functionals are the planar ones with that weight: the radial factor of
the fan is the integral of u**(p+1) in 2D and of u**(p+2) in 3D.

The kernels compute on z = x + iy: each (n, 2) vertex array is read,
without a copy, as n complex numbers, so an edge length or radius is one
complex abs, a fan triangle's doubled area is Im(conj(A) B) and an edge
normal is -iE/|E|.  Gradients and normals come back as (n, 2) views of
complex results; the smoother and resampler work on the (n, 2) rows.

Each polyline's geometry lives in a _Geometry record, each array computed
once: the edge ends, vectors, lengths and fan crosses with the record,
the midpoints and the fan's nodes with their radii on first use.  Every
kernel takes a record; the public wrappers and the driver make one per
vertex array.  The projection returns the record of the curve it
accepts, the line search hands it on, and the next iteration's
gradients, normals and step size read the arrays the last mass and
perimeter evaluations made.  The values keep their radii's powers (a
record meets one density); a gradient reuses one only where no radius is
below its 1e-300 clamp, so every result is the same to the bit as from a
fresh record.  Records belong to one call and none is kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import Density, Dimension, check_mass
from .numerics import NumericError
from .radial import symmetric_ball
from .spectral import _initial_center, _unit_offset, spectral_2d, spectral_3d_axisym

__all__ = [
    "PolyCurve",
    "EvolveReport",
    "weighted_perimeter_2d",
    "weighted_mass_2d",
    "perimeter_gradient_2d",
    "mass_gradient_2d",
    "evolve_2d",
    "evolve_3d_axisym",
    "isoperimetric_quotient",
]

_TWO_PI = 2.0 * math.pi

# Quadrature nodes mapped to [0, 1]: 4 along each edge, 7 across the fan.
_X4, _W4 = np.polynomial.legendre.leggauss(4)
_T4 = 0.5 * (_X4 + 1.0)
_T4_COLUMN = _T4[:, None] + 0j  # cast once: a product with complex edges casts a float column
_WT4 = 0.5 * _W4
_WT4_START, _WT4_END = _WT4 * (1.0 - _T4), _WT4 * _T4  # a node's shares of its edge's ends
_X7, _W7 = np.polynomial.legendre.leggauss(7)
_U7 = 0.5 * (_X7 + 1.0)
_WU7 = 0.5 * _W7


@functools.cache
def _radial_factor(q: float) -> float:
    # integral of u**q over [0,1], q = p + d - 1; exact 1/(q+1) for the polynomial cases
    return float(np.sum(_WU7 * _U7 ** q))


def _next(X: np.ndarray) -> np.ndarray:
    """Row i holds X[i + 1], cyclically: np.roll(X, -1, axis=0) at a fraction of its overhead."""
    return np.concatenate((X[1:], X[:1]))


def _prev(X: np.ndarray) -> np.ndarray:
    """Row i holds X[i - 1], cyclically: np.roll(X, 1, axis=0)."""
    return np.concatenate((X[-1:], X[:-1]))


def _z(V: np.ndarray) -> np.ndarray:
    """The rows (x, y) of V as the numbers x + iy: a view, unless V is not C-contiguous float."""
    return np.ascontiguousarray(V, dtype=float).view(np.complex128)[..., 0]


def _rows(z: np.ndarray) -> np.ndarray:
    """The numbers x + iy of a fresh complex array as the rows (x, y) of a view."""
    return z.view(float).reshape(-1, 2)


def _cross(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Twice the signed area of each fan triangle (0, A, B): Im(conj(A) B)."""
    return (A.conj() * B).imag


class _Geometry:
    """One polyline's geometry, each array computed once and then kept.

    V is the (n, 2) vertex array, z its numbers x + iy, and d picks the
    edges: a closed loop in 2D, an open pole-to-pole profile in 3D.  The
    edge ends A and B, the edge vectors E, their lengths L and the fan's
    crosses (twice the signed area of each fan triangle) come with the
    record; the midpoints and the fan's nodes, each with their radii, are
    computed on first use.  A record describes one V, which must not
    change while the record is in use.
    """

    def __init__(self, V: np.ndarray, d: int):
        self.V, self.d = V, d
        self.z = z = _z(V)
        self.A, self.B = (z, _next(z)) if d == 2 else (z[:-1], z[1:])
        self.E = self.B - self.A
        self.L = abs(self.E)
        self.cross = _cross(self.A, self.B)
        self._mids = self._fan = self._power_mid = self._power_fan = None

    def mids(self) -> tuple[np.ndarray, np.ndarray]:
        """(mid, |mid|): the edge midpoints and their radii."""
        if self._mids is None:
            mid = 0.5 * (self.A + self.B)
            self._mids = mid, abs(mid)
        return self._mids

    def fan(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, |P|): the fan's edge nodes, row j holding node j of every edge, and their radii."""
        if self._fan is None:
            P = self.A + _T4_COLUMN * self.E
            self._fan = P, abs(P)
        return self._fan

    def radii(self, points: str) -> np.ndarray:
        """The radii of the points named: "mid" (the midpoints) or "fan" (the fan's nodes)."""
        return (self.mids() if points == "mid" else self.fan())[1]

    def power(self, points: str, p: float) -> np.ndarray:
        """radii(points) ** p, taken once: the values' form.  A record meets one p."""
        held = getattr(self, "_power_" + points)
        if held is None:
            held = self.radii(points) ** p
            setattr(self, "_power_" + points, held)
        return held

    def clamped(self, points: str, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(r, r ** p), r being radii(points) raised to at least 1e-300: the gradients' form.

        Where no radius is raised, r ** p is the values' power when they
        have taken it.
        """
        r = self.radii(points)
        if not r.min() >= 1e-300:  # NaN radii take this branch too
            r = np.maximum(r, 1e-300)
            return r, r ** p
        held = getattr(self, "_power_" + points)
        return r, held if held is not None else r ** p


def _star_ok(g: _Geometry, ref: np.ndarray) -> bool:
    """True if the closed loop of g's vertices winds once, monotonically, about ref.

    Each step about ref turns counterclockwise by less than pi exactly when
    the cross product of consecutive rows of V - ref is positive; with all
    steps turning so, the loop's winding number counts its crossings of the
    positive x half-line, the steps from y < 0 to y >= 0.  The verdict is
    that of the angle sum for every loop whose steps are not within
    rounding of 0 or pi.  A profile's loop closes along the axis.
    """
    c = _z(ref)
    W = g.z - c
    Wn = g.B - c if g.d == 2 else _next(W)  # a loop's B is z shifted by one
    if not (_cross(W, Wn) > 0.0).all():
        return False
    return int(np.count_nonzero((W.imag < 0.0) & (Wn.imag >= 0.0))) == 1


def _profile_ok(g: _Geometry) -> bool:
    """True if the profile stays above the axis, its poles in order, and closes star-shaped."""
    W = g.V
    if (W[1:-1, 1] <= 0.0).any():
        return False
    if W[0, 0] <= W[-1, 0]:
        return False
    # closing the profile back along the axis must give a star-shaped loop
    return _star_ok(g, _centroid(W))


def _valid(g: _Geometry) -> bool:
    """A loop star-shaped about its centroid, or a profile as _profile_ok wants it."""
    return _star_ok(g, _centroid(g.V)) if g.d == 2 else _profile_ok(g)


def _centroid(V: np.ndarray) -> np.ndarray:
    """V.mean(axis=0)'s row-order column sums, in one inner loop per column, not one per row.

    Only a column of -0.0 sums otherwise (mean starts from +0.0): no star test tells them apart.
    """
    return np.add.accumulate(V, axis=0)[-1] / len(V)


class PolyCurve:
    """Closed polygonal curve: ordered counterclockwise vertices, no repeats.

    The curve must be star-shaped with respect to its own centroid, which
    also guarantees simplicity; this is validated at construction.
    """

    def __init__(self, vertices, validate: bool = True):
        V = np.array(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        # a closing vertex repeats the first to within 1e-8 of the curve's extent
        if len(V) >= 2 and np.allclose(V[0], V[-1], rtol=0.0,
                                       atol=1e-8 * float(np.max(np.ptp(V, axis=0)))):
            V = V[:-1]
        if len(V) < 16:
            raise ValueError("need at least 16 vertices")
        self._V = V
        if validate:
            self._validate()

    def _validate(self):
        V = self._V
        g = _Geometry(V, 2)
        if g.L.min() <= 0.0:
            raise ValueError("curve has a zero-length edge")
        if _volume(g) <= 0.0:
            raise ValueError("vertices must be ordered counterclockwise")
        if not _star_ok(g, V.mean(axis=0)):
            raise ValueError("curve is not star-shaped about its centroid")

    @classmethod
    def circle(cls, radius: float, center=(0.0, 0.0), n: int = 256) -> "PolyCurve":
        theta = np.linspace(0.0, _TWO_PI, n, endpoint=False)
        cx, cy = center
        V = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
        return cls(V, validate=False)

    @property
    def n(self) -> int:
        return len(self._V)

    @property
    def vertices(self) -> np.ndarray:
        return self._V.copy()

    def unweighted_perimeter(self) -> float:
        return float(_Geometry(self._V, 2).L.sum())

    def unweighted_area(self) -> float:
        return _volume(_Geometry(self._V, 2))


def _gather(at_start: np.ndarray, at_end: np.ndarray, d: int) -> np.ndarray:
    """Sum values held per edge onto the vertices each edge starts and ends at."""
    if d == 2:
        return at_start + _prev(at_end)
    G = np.concatenate((at_start, [0.0]))
    G[1:] += at_end
    return G


def _pin_poles(G: np.ndarray) -> np.ndarray:
    """Zero the y components of a profile's two poles in place: they stay on the axis."""
    G[0, 1] = G[-1, 1] = 0.0
    return G


def _revolution(X: np.ndarray, d: int):
    """(w, c) at points X: the weight c*w is 1 in 2D, 2*pi*y about the x-axis in 3D.

    The 3D weight's gradient is the constant i, which the kernels add to
    imaginary parts as the lift.
    """
    return (1.0, 1.0) if d == 2 else (X.imag, _TWO_PI)


def _functional(dens: Density, g: _Geometry) -> float:
    """Weighted perimeter (2D) or surface area (3D): edge lengths times c*w*rho at midpoints."""
    mid = g.mids()[0]
    rho = g.power("mid", dens.p) + dens.a
    if g.d == 2:  # the weight is 1
        return float((g.L * rho).sum())
    return _TWO_PI * float((mid.imag * g.L * rho).sum())


def _functional_grad(dens: Density, g: _Geometry) -> np.ndarray:
    """The gradient of _functional in the vertices."""
    p, a, d = dens.p, dens.a, g.d
    E, L = g.E, g.L
    mid = g.mids()[0]
    w, c = _revolution(mid, d)
    rm, rm_p = g.clamped("mid", p)
    rho = rm_p + a
    along = (w * rho / L) * E
    # d(w rho(rm))/d(mid) pulled back to the two edge vertices (factor 1/2 each)
    radial = (0.5 * w * L * p * rm ** (p - 2.0)) * mid
    if d == 3:  # the lift: the weight's gradient i, times L rho / 2 at each end
        radial.imag += 0.5 * L * rho
    return _rows(c * _gather(radial - along, radial + along, d))


def _volume(g: _Geometry) -> float:
    """Signed area (2D) or volume (3D) of the fan: the sum of c*cross*(w_A + w_B)/(2d)."""
    cross = g.cross
    if g.d == 2:
        return 0.25 * float((cross * 2.0).sum())
    return _TWO_PI / 6 * float((cross * (g.A.imag + g.B.imag)).sum())


def _fan_mass(dens: Density, g: _Geometry) -> float:
    """Weighted mass: a times the fan's area or volume plus the fan integral of c*w*r**p.

    Every projection step calls this kernel; the edge nodes are one (4, n) array.
    """
    p, d = dens.p, g.d
    P = g.fan()[0]
    f = g.power("fan", p)
    fan = _radial_factor(p + (d - 1))
    if d == 3:  # the weight 2*pi*y
        f = P.imag * f
        fan = _TWO_PI * fan
    return dens.a * _volume(g) + fan * float((g.cross * (_WT4 @ f)).sum())


def _fan_mass_grad(dens: Density, g: _Geometry) -> np.ndarray:
    """The gradient of _fan_mass in the vertices."""
    p, d = dens.p, g.d
    A, B, cross = g.A, g.B, g.cross
    P = g.fan()[0]
    w, c = _revolution(P, d)
    Rn, Rn_p = g.clamped("fan", p)
    # the fan integrand w*(cp |P|^p + ca), the uniform part a*w integrated exactly by
    # the same nodes (its radial factor is 1/d), and its gradient in P
    cp, ca = c * _radial_factor(p + (d - 1)), c * dens.a / d
    f = cp * Rn_p + ca
    iS = 1j * (_WT4 @ (w * f))
    grad_f = (cp * p * w * Rn ** (p - 2.0)) * P
    if d == 3:  # the weight's gradient i, times f
        grad_f.imag += f
    # each vertex's share of the nodes on the edges it starts and ends
    T0, T1 = _WT4_START @ grad_f, _WT4_END @ grad_f
    # the cross's gradient in A is -i B and in B is i A
    return _rows(_gather(cross * T0 - iS * B, cross * T1 + iS * A, d))


def weighted_perimeter_2d(dens: Density, curve: PolyCurve) -> float:
    """Weighted perimeter: sum of edge lengths times the density at edge midpoints."""
    g = _Geometry(curve.vertices, 2)
    if g.L.min() <= 0.0:
        raise ValueError("curve has a zero-length edge")
    return _functional(dens, g)


def weighted_mass_2d(dens: Density, curve: PolyCurve) -> float:
    """Weighted mass a*A_u + integral of r**p over the enclosed region.

    The r**p part is integrated by fanning signed triangles from the
    origin; A_u is the shoelace area.  The curve must be star-shaped
    about its centroid.
    """
    V = curve.vertices
    g = _Geometry(V, 2)
    if not _star_ok(g, V.mean(axis=0)):
        raise ValueError("curve is not star-shaped about its centroid")
    return _fan_mass(dens, g)


def perimeter_gradient_2d(dens: Density, curve: PolyCurve) -> np.ndarray:
    """Analytic gradient of the weighted perimeter with respect to each vertex."""
    return _functional_grad(dens, _Geometry(curve.vertices, 2))


def mass_gradient_2d(dens: Density, curve: PolyCurve) -> np.ndarray:
    """Analytic gradient of the weighted mass with respect to each vertex."""
    return _fan_mass_grad(dens, _Geometry(curve.vertices, 2))


def _smooth(field: np.ndarray, d: int) -> np.ndarray:
    """Sobolev-precondition a vertex field: damp mode k by 1/(1 + (k/4)**2).

    Vertex-wise descent directions are dominated by mesh-frequency
    components that cap the accepted step length; damping them makes the
    convergence rate independent of the resolution without changing the
    stationary points.  An open profile's field is smoothed through its
    even (Neumann) extension.
    """
    ext = field if d == 2 else np.vstack([field, field[-2:0:-1]])
    n = len(ext)
    spec = np.fft.rfft(ext, axis=0)
    return np.fft.irfft(spec * _sobolev(n)[:, None], n=n, axis=0)[: len(field)]


@functools.cache
def _sobolev(n: int) -> np.ndarray:
    """_smooth's multiplier of the rfft modes k = 0 .. n // 2 of an n-point field."""
    k = np.arange(n // 2 + 1)
    mult = 1.0 / (1.0 + (n / (math.pi * 4.0)) ** 2 * np.sin(math.pi * k / n) ** 2)
    mult.flags.writeable = False
    return mult


def _normals(g: _Geometry) -> np.ndarray:
    """Unit vertex normals: the normalized sum of the two adjacent edges' normals.

    A profile's poles move along the axis only, so offsets along the
    normals keep them on it; the profile runs right pole -> left pole.
    """
    ne = -1j * g.E / np.maximum(g.L, 1e-300)  # outward for ccw
    nv = _gather(ne, ne, g.d)
    N = _rows(nv / np.maximum(abs(nv), 1e-300))
    if g.d == 3:
        N[0], N[-1] = (1.0, 0.0), (-1.0, 0.0)
    return N


def _project(dens: Density, g: _Geometry, chord=None) -> _Geometry:
    """Restore the unit mass to 1e-10 by offsets along the normals.

    The residual comes from the mass-only kernel.  chord, (N, slope) of
    the iterate a line-search trial was taken from, makes the offsets
    chord steps along N with that slope, so a trial takes no gradient;
    without one, when its slope is not positive, and from the first chord
    step that does not shrink the residual on, each offset is a Newton
    step along the curve's own normals with a fresh mass gradient.
    Returns the record of the accepted curve: g itself when its mass is
    already within tolerance.
    """
    N, slope = chord if chord is not None else (None, 0.0)
    newton = not slope > 0.0
    last = math.inf
    for _ in range(15):
        resid = _fan_mass(dens, g) - 1.0
        if abs(resid) <= 1e-10:
            return g
        if newton or not abs(resid) < last:
            newton = True
            N = _normals(g)
            slope = float((_fan_mass_grad(dens, g) * N).sum())
            if slope <= 0.0:
                raise NumericError("mass projection lost its outward slope")
        last = abs(resid)
        g = _Geometry(g.V + (-resid / slope) * N, g.d)
    raise NumericError("mass projection did not converge")


def _catmull_rom(P0, P1, P2, P3, t):
    t = t[:, None]
    return 0.5 * (2.0 * P1 + (P2 - P0) * t
                  + (2.0 * P0 - 5.0 * P1 + 4.0 * P2 - P3) * t * t
                  + (3.0 * P1 - P0 - 3.0 * P2 + P3) * t * t * t)


def _resample(g: _Geometry) -> np.ndarray:
    """Redistribute vertices uniformly in arc length along the loop or the profile.

    Cubic (Catmull-Rom) interpolation: a piecewise-linear resampler would
    leave C0 kinks that dominate any curvature diagnostic afterwards.  A
    profile's poles stay where they were.
    """
    V, seg, d = g.V, g.L, g.d
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], len(V), endpoint=d == 3)
    idx = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(seg) - 1)
    t = (targets - s[idx]) / seg[idx]
    # row i + 1 holds V[i]: the loop wraps around, the profile extends straight past its ends
    ext = (np.vstack([V[-1:], V, V[:2]]) if d == 2 else
           np.vstack([V[0] + (V[0] - V[1]), V, V[-1] + (V[-1] - V[-2])]))
    out = _catmull_rom(ext[idx], ext[idx + 1], ext[idx + 2], ext[idx + 3], t)
    if d == 3:
        out[0], out[-1] = V[0], V[-1]
        _pin_poles(out)
    return out


def _fit_circle(V: np.ndarray) -> tuple[float, float, float]:
    """Algebraic (Kasa) circle fit: returns (cx, cy, R).

    The fit runs on V divided by a power of two near its largest
    coordinate: at tiny scales the column of ones would otherwise make
    lstsq drop the coordinate columns' singular values.
    """
    scale = math.ldexp(1.0, math.frexp(float(np.abs(V).max()))[1])
    x, y = V[:, 0] / scale, V[:, 1] / scale
    A = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    b = x * x + y * y
    (cx, cy, c), *_ = np.linalg.lstsq(A, b, rcond=None)
    R = math.sqrt(max(c + cx * cx + cy * cy, 0.0))
    return float(cx) * scale, float(cy) * scale, R * scale


def _curvature_spread(dens: Density, g: _Geometry) -> float:
    """Relative spread of the generalized curvature over a loop's vertices.

    Uses finite differences of r(theta) in the polar parametrization about
    the origin; NaN when the origin is not safely interior.
    """
    V = g.V
    r = np.hypot(V[:, 0], V[:, 1])
    if not _star_ok(g, np.zeros(2)) or np.min(r) < 1e-3 * np.max(r):
        return math.nan
    theta = np.unwrap(np.arctan2(V[:, 1], V[:, 0]))
    h1 = theta - _prev(theta)
    h1[0] += _TWO_PI
    h2 = _next(theta) - theta
    h2[-1] += _TWO_PI
    rm = _prev(r)
    rp = _next(r)
    denom = h1 * h2 * (h1 + h2)
    with np.errstate(all="ignore"):  # tiny curves underflow g; the spread is then NaN
        r_dot = (rp * h1 * h1 - rm * h2 * h2 + r * (h2 * h2 - h1 * h1)) / denom
        r_ddot = 2.0 * (rp * h1 + rm * h2 - r * (h1 + h2)) / denom
        g = r * r + r_dot * r_dot
        kappa = (r * r + 2.0 * r_dot * r_dot - r * r_ddot) / g ** 1.5
        kappa += dens.p * r ** (dens.p - 1.0) / (r ** dens.p + dens.a) * r / np.sqrt(g)
        mean = float(np.mean(kappa))
        if mean == 0.0:
            return math.nan
        return float((np.max(kappa) - np.min(kappa)) / abs(mean))


@dataclass
class EvolveReport:
    """Outcome of a constrained evolution run.

    For axisymmetric 3D runs, weighted_perimeter/unweighted_perimeter hold
    the weighted/unweighted surface area and unweighted_area holds the
    enclosed volume; final_curve is the full meridional cross-section.
    curvature_spread is the relative max-min spread of the generalized
    curvature over vertices (NaN when undefined, e.g. in 3D or when the
    origin is not interior).
    """

    final_curve: PolyCurve
    weighted_perimeter: float
    weighted_mass: float
    unweighted_perimeter: float
    unweighted_area: float
    iterations: int
    converged: bool
    curvature_spread: float
    radius_estimate: float
    center_offset_estimate: float


def isoperimetric_quotient(report: EvolveReport) -> float:
    """P_u / sqrt(4*pi*A_u): 1 for a perfect circle, larger otherwise."""
    if report.unweighted_area <= 0.0:
        raise ValueError("report has nonpositive unweighted area")
    return report.unweighted_perimeter / math.sqrt(4.0 * math.pi * report.unweighted_area)


# ---------------------------------------------------------------------------
# The descent driver, one for both states: every function reads the
# state's dimension from its record.
# ---------------------------------------------------------------------------

def _first_trial(step0: float, last: float) -> float:
    """Initial step of a line search: near the step the last search remembered.

    Nocedal & Wright's initial-step heuristic: start at twice the memory
    of the previous search (its accepted step, or its smallest trial when
    it failed), capped at step0; with nothing on record (last == 0.0: a
    new run or a fresh resample) start at step0.  Twice, not four times:
    a search that opens at 4t mostly fails there and at 2t before it
    accepts t, two projections wasted.
    """
    return min(2.0 * last, step0) if last > 0.0 else step0


def _line_search(dens: Density, g: _Geometry, per: float, dhat: np.ndarray, step0: float,
                 chord) -> tuple[_Geometry, float, float, float]:
    """Backtracking move along dhat (unit max-displacement) with mass re-projection.

    Each trial is projected with chord, the (normals, mass slope) pair of
    the iterate (see _project; None projects by Newton steps), and is
    accepted when the projection succeeds, the functional strictly falls
    and the curve is valid (see _valid) both before and after the
    projection.  The cheap functional test runs first and the validity
    tests only on trials that pass it; a projection that returns its
    input unchanged is tested once.  Each trial is a record, which the
    validity test, the projection and the functional share.

    Returns (record, functional, step, memory): the accepted curve's
    record and step length, or the input g, per and 0.0 when no trial was
    accepted.
    memory, from which _first_trial starts the next search, is the
    accepted step or, after a failure, the smallest trial made (step0 if
    none was): a direction that has stopped descending is not halved
    again all the way down from the cap.
    Halving stops at 1e-14 of the state's extent, so a tiny curve is
    searched as a large one is.
    """
    floor = 1e-14 * float(np.abs(g.V).max())
    t = step0
    while t > floor:
        trial = _Geometry(g.V + t * dhat, g.d)
        try:
            projected = _project(dens, trial, chord)
        except NumericError:
            t *= 0.5
            continue
        pt = _functional(dens, projected)
        if pt < per and _valid(trial) and (projected is trial or _valid(projected)):
            return projected, pt, t, t
        t *= 0.5
    return g, per, 0.0, min(2.0 * t, step0)


def _try_direction(dens: Density, g: _Geometry, per: float, dhat: np.ndarray, step0: float,
                   chord) -> tuple[_Geometry, float, float, float]:
    """_line_search of a closed polygon; the benchmark's tracer tells the states apart by name."""
    return _line_search(dens, g, per, dhat, step0, chord)


def _try_direction_rev(dens: Density, g: _Geometry, per: float, dhat: np.ndarray,
                       step0: float, chord) -> tuple[_Geometry, float, float, float]:
    """_line_search of a profile; dhat must keep the poles' y at zero, as _descend's do."""
    return _line_search(dens, g, per, dhat, step0, chord)


def _unit(direction: np.ndarray):
    """direction scaled to unit max-displacement, or None when it vanishes."""
    dmax = float(np.abs(direction).max())
    return direction / dmax if dmax > 1e-300 else None


def _descend(dens: Density, g: _Geometry, per: float, step0: float,
             memory: float) -> tuple[_Geometry, float, bool, float]:
    """One projected-descent iteration of the iterate g.

    The direction is -grad(P) with its component along grad(M) removed,
    Sobolev-smoothed (see _smooth) and projected onto the mass tangent
    again; one line search runs along it.  A translation is mode 0 of each
    coordinate column, which the smoother passes unchanged, so the same
    search slides an off-centre optimum home.  Trials are accepted only
    if valid and shorter (in the functional) than before.  A profile's
    gradients and direction are pinned at the poles (see _pin_poles).

    memory is the last search's (see _line_search; 0.0 for none); the
    search starts near it (see _first_trial) and projects its trials with
    the iterate's normals and mass slope (see _project).  Returns
    (record, functional, accepted, memory).
    """
    pin = _pin_poles if g.d == 3 else lambda G: G
    gP = pin(_functional_grad(dens, g))
    gM = pin(_fan_mass_grad(dens, g))
    N = _normals(g)
    chord = (N, float((gM * N).sum()))
    gM2 = float((gM * gM).sum())
    if not gM2 > 0.0:  # the whole gradient underflowed
        raise NumericError("mass gradient vanished")
    lam = float((gP * gM).sum() / gM2)
    ds = _smooth(-gP + lam * gM, g.d)
    dhat = _unit(pin(ds - (float((ds * gM).sum()) / gM2) * gM))
    if dhat is None:
        return g, per, False, memory
    search = _try_direction if g.d == 2 else _try_direction_rev
    g, per, step, memory = search(dens, g, per, dhat, _first_trial(step0, memory), chord)
    return g, per, step > 0.0, memory


def _check_run(M0: float, max_iters: int, tol: float) -> None:
    """ValueError unless M0 is a valid mass, max_iters >= 0 and 0 <= tol < inf."""
    check_mass(M0)
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")


def _drive(dens: Density, g: _Geometry, max_iters: int, tol: float):
    """Project the record g onto the unit mass and descend until the run stops.

    Stops when the functional's relative decrease over 50 iterations falls
    below tol or after 25 iterations in a row without an accepted step;
    resamples after every 100 accepted steps and then forgets the line
    search's memory, as at the start.  Each iteration starts from the
    record the last projection returned.  Returns (record, functional,
    mass, iterations, converged).
    """
    g = _project(dens, g)
    per = _functional(dens, g)
    iterations = 0
    history = [per]
    memory = 0.0  # the line search's
    stalled = 0
    since_resample = 0
    plateau = False
    while iterations < max_iters:
        iterations += 1
        step0 = 0.1 * float(np.add.reduce(g.L) / len(g.L))  # the mean edge, as L.mean()
        g, per, accepted, memory = _descend(dens, g, per, step0, memory)
        if accepted:
            stalled = 0
            since_resample += 1
        else:
            stalled += 1
            if stalled >= 25:
                break
        history.append(per)
        if len(history) > 50 and history[-51] - per < tol * abs(per):
            plateau = True
            break
        if since_resample >= 100:
            g = _project(dens, _Geometry(_resample(g), g.d))
            per = _functional(dens, g)
            memory = 0.0
            since_resample = 0
    M = _fan_mass(dens, g)
    converged = abs(M - 1.0) <= 1e-8 and (plateau or stalled >= 25)
    return g, per, M, iterations, bool(converged)


def evolve_2d(dens: Density, M0: float, n: int = 256, max_iters: int = 4000,
              tol: float = 1e-9) -> EvolveReport:
    """Minimize weighted perimeter at fixed weighted mass M0 in the plane.

    Starts from the spectral optimum (spectral.spectral_2d) sampled at n
    points equally spaced in arc length when that solve is certified;
    otherwise from a circle whose radius solves the centred mass equation,
    displaced along the x-axis to dodge the centred saddle when the
    optimum straddles the origin.  Terminates when the relative perimeter
    decrease over 50 iterations falls below tol (with the mass constraint
    satisfied) or when no further downhill step exists at the mesh
    resolution.
    """
    return _evolve(2, dens, M0, n, max_iters, tol)


def evolve_3d_axisym(dens: Density, M0: float, n: int = 129, max_iters: int = 4000,
                     tol: float = 1e-9) -> EvolveReport:
    """Minimize weighted surface area at fixed weighted mass, axisymmetrically.

    The state is a half-profile polyline revolved about the x-axis, from
    the right pole to the left pole through y > 0, with the poles pinned
    to the axis; otherwise the scheme matches evolve_2d.  It starts from
    the certified spectral optimum (spectral_3d_axisym), sampled at n
    points equally spaced in arc length from pole to pole, or else from
    the displaced sphere.
    """
    return _evolve(3, dens, M0, n, max_iters, tol)


def _evolve(d: int, dens: Density, M0: float, n: int, max_iters: int,
            tol: float) -> EvolveReport:
    """Start, drive and report a run of the loop (d = 2) or the profile (d = 3).

    The run is solved at unit mass, for the offset a * M0**(-p/(p+d)), and
    scaled back by s = M0**(1/(p+d)): lengths by s, areas or volumes by
    s**d, the mass by M0 and the weighted perimeter by M0**((p+d-1)/(p+d)).
    """
    _check_run(M0, max_iters, tol)
    least, points = (64, "vertices") if d == 2 else (17, "profile points")
    if n < least:
        raise ValueError(f"need at least {least} {points}")
    p = dens.p
    dens = Density(p, _unit_offset(dens, M0, d))
    start = (spectral_2d if d == 2 else spectral_3d_axisym)(dens, 1.0)
    if start.certified:
        V = start.sample(n)
    else:  # a circle, or a sphere's half-circle profile from pole to pole
        R = symmetric_ball(dens, Dimension(d), 1.0).radius
        theta = np.linspace(0.0, _TWO_PI / (d - 1), n, endpoint=d == 3)
        V = np.column_stack([_initial_center(dens, R) + R * np.cos(theta), R * np.sin(theta)])
        if d == 3:
            _pin_poles(V)
    g, per, M, iterations, converged = _drive(dens, _Geometry(V, d), max_iters, tol)
    V = g.V
    s = M0 ** (1.0 / (p + d))
    w, c = _revolution(g.mids()[0], d)
    cx, cy, R_fit = _fit_circle(V)
    # in 3D the curve is the full meridional cross-section: profile plus its mirror image
    closed = V if d == 2 else np.vstack([V, V[-2:0:-1] * [1.0, -1.0]])
    return EvolveReport(
        final_curve=PolyCurve(s * closed, validate=False),
        weighted_perimeter=per * M0 ** ((p + d - 1.0) / (p + d)),
        weighted_mass=M * M0,
        unweighted_perimeter=c * float((w * g.L).sum()) * s ** (d - 1),
        unweighted_area=_volume(g) * s ** d,
        iterations=iterations,
        converged=converged,
        curvature_spread=_curvature_spread(dens, g) if d == 2 else math.nan,
        radius_estimate=R_fit * s,
        center_offset_estimate=float(math.hypot(cx, cy if d == 2 else 0.0)) * s,
    )


# The benchmark's tracer counts calls to these per-state names; it patches
# every module attribute bound to the same function, so they share one.
_mass_grad = _rev_mass_grad = _fan_mass_grad
_perimeter_grad = _rev_area_grad = _functional_grad
_resample_closed = _resample_profile = _resample
_project_mass = _project_mass_rev = _project
