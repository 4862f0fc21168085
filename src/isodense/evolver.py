"""Constrained curve evolution: weighted-perimeter descent at fixed weighted mass.

A closed polygonal curve in the plane (or an axisymmetric profile revolved
about the x-axis in 3D) is driven by projected gradient descent: the step
direction is the perimeter gradient with its mass-gradient component
removed, and each trial move is followed by chord steps that restore the
mass by uniform offsets along the iterate's vertex normals, with the
iterate's mass slope along them (Newton steps with a fresh gradient where
a chord step does not help).  Steps are accepted only if the weighted
perimeter does not increase and the curve stays star-shaped (which
guarantees it stays simple).

A run starts from the spectral optimum (isodense.spectral) sampled at the
run's vertex count when that solve is certified, and otherwise from a
displaced circle or sphere; the descent is the same either way.

All functionals are discretized consistently with their analytic
gradients: perimeter by edge midpoints, mass by fanning signed triangles
from the origin with a tensor Gauss-Legendre rule (7 radial x 4 angular
nodes per triangle), so the fan works even when the region does not
contain the origin.

One set of kernels serves both states, a polyline whose dimension d
picks its edges (a closed loop in 2D, an open pole-to-pole profile in
3D) and its revolution weight (1 in 2D, 2*pi*y in 3D).  The revolved
functionals are the planar ones with that weight: the radial factor of
the fan is the integral of u**(p+1) in 2D and of u**(p+2) in 3D.
Per-state names (_perimeter, _rev_area, ...) bind the kernels to a
dimension; the driver looks them up by name when it runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import Density, Dimension, check_mass
from .numerics import NumericError, gauss_legendre_nodes
from .radial import symmetric_ball
from .spectral import _initial_center, spectral_2d, spectral_3d_axisym

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
_X4, _W4 = gauss_legendre_nodes(4)
_T4 = 0.5 * (_X4 + 1.0)
_WT4 = 0.5 * _W4
_X7, _W7 = gauss_legendre_nodes(7)
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


_TURN = np.array([1.0, -1.0])


def _perp(X: np.ndarray) -> np.ndarray:
    """Rows (y, -x) for rows (x, y): each turned clockwise by a right angle."""
    return X[:, ::-1] * _TURN


def _star_ok(V: np.ndarray, ref: np.ndarray) -> bool:
    """True if the closed vertex loop winds once, monotonically, about ref.

    Each step about ref turns counterclockwise by less than pi exactly when
    the cross product of consecutive rows of V - ref is positive; with all
    steps turning so, the loop's winding number counts its crossings of the
    positive x half-line, the steps from y < 0 to y >= 0.  The verdict is
    that of the angle sum for every loop whose steps are not within
    rounding of 0 or pi.
    """
    W = V - ref
    Wn = _next(W)
    if not (_cross(W, Wn) > 0.0).all():
        return False
    return int(np.count_nonzero((W[:, 1] < 0.0) & (Wn[:, 1] >= 0.0))) == 1


def _centroid(V: np.ndarray) -> np.ndarray:
    """V.mean(axis=0), bit for bit, without the wrapper's overhead."""
    return np.add.reduce(V, axis=0) / len(V)


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
        E = _edges(V, 2)
        if np.min(np.hypot(E[:, 0], E[:, 1])) <= 0.0:
            raise ValueError("curve has a zero-length edge")
        if self.unweighted_area() <= 0.0:
            raise ValueError("vertices must be ordered counterclockwise")
        if not _star_ok(V, V.mean(axis=0)):
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

    def centroid(self) -> np.ndarray:
        return self._V.mean(axis=0)

    def unweighted_perimeter(self) -> float:
        E = _edges(self._V, 2)
        return float(np.sum(np.hypot(E[:, 0], E[:, 1])))

    def unweighted_area(self) -> float:
        Vn = _next(self._V)
        return _volume(self._V[:, 1], Vn[:, 1], _cross(self._V, Vn), 2)


def _ends(V: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end rows of every edge: a closed loop in 2D, an open profile in 3D."""
    return (V, _next(V)) if d == 2 else (V[:-1], V[1:])


def _edges(V: np.ndarray, d: int) -> np.ndarray:
    A, B = _ends(V, d)
    return B - A


def _gather(at_start: np.ndarray, at_end: np.ndarray, d: int) -> np.ndarray:
    """Sum rows held per edge onto the vertices each edge starts and ends at."""
    if d == 2:
        return at_start + _prev(at_end)
    G = np.zeros((len(at_start) + 1, 2))
    G[:-1] += at_start
    G[1:] += at_end
    return G


_EY = np.array([0.0, 1.0])


def _revolution(X: np.ndarray, d: int):
    """(w, grad w, c) at points X: the weight c*w is 1 in 2D, 2*pi*y about the x-axis in 3D."""
    if d == 2:
        return 1.0, 0.0, 1.0
    return X[..., 1], _EY, _TWO_PI


def _functional(dens: Density, V: np.ndarray, d: int) -> float:
    """Weighted perimeter (2D) or surface area (3D): edge lengths times c*w*rho at midpoints."""
    A, B = _ends(V, d)
    E = B - A
    mid = 0.5 * (A + B)
    L = np.hypot(E[:, 0], E[:, 1])
    rho = np.hypot(mid[:, 0], mid[:, 1]) ** dens.p + dens.a
    if d == 2:  # the weight is 1
        return float((L * rho).sum())
    return _TWO_PI * float((mid[:, 1] * L * rho).sum())


def _functional_grad(dens: Density, V: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    p, a = dens.p, dens.a
    A, B = _ends(V, d)
    E = B - A
    L = np.hypot(E[:, 0], E[:, 1])
    mid = 0.5 * (A + B)
    w, dw, c = _revolution(mid, d)
    rm = np.maximum(np.hypot(mid[:, 0], mid[:, 1]), 1e-300)
    rho = rm ** p + a
    value = c * float((w * L * rho).sum())
    along = (w * rho)[:, None] * (E / L[:, None])
    # d(w rho(rm))/d(mid) pulled back to the two edge vertices (factor 1/2 each)
    radial = (0.5 * w * L * p * rm ** (p - 2.0))[:, None] * mid
    lift = (0.5 * L * rho)[:, None] * dw
    return value, c * _gather(-along + radial + lift, along + radial + lift, d)


def _cross(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Twice the signed area of each fan triangle (0, A, B)."""
    return A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]


def _volume(yA: np.ndarray, yB: np.ndarray, cross: np.ndarray, d: int) -> float:
    """Signed area (2D) or volume (3D) of the fan: the sum of c*cross*(w_A + w_B)/(2d).

    yA, yB are the y coordinates of the edges' ends, which the 3D weight reads.
    """
    if d == 2:
        return 0.25 * float((cross * 2.0).sum())
    return _TWO_PI / 6 * float((cross * (yA + yB)).sum())


def _fan_mass(dens: Density, V: np.ndarray, d: int) -> float:
    """Weighted mass: a times the fan's area or volume plus the fan integral of c*w*r**p.

    Every projection step calls this kernel, so it runs on coordinate
    columns: the edge nodes are two (4, n) arrays.
    """
    p = dens.p
    xA, xB = _ends(V[:, 0], d)
    yA, yB = _ends(V[:, 1], d)
    cross = xA * yB - yA * xB
    Px = xA + _T4[:, None] * (xB - xA)
    Py = yA + _T4[:, None] * (yB - yA)
    f = np.hypot(Px, Py) ** p
    fan = _radial_factor(p + (d - 1))
    if d == 3:  # the weight 2*pi*y
        f = Py * f
        fan = _TWO_PI * fan
    S = np.einsum("j,jn->n", _WT4, f)
    return dens.a * _volume(yA, yB, cross, d) + fan * float((cross * S).sum())


def _fan_mass_grad(dens: Density, V: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """(mass, gradient): the mass agrees with _fan_mass to rounding."""
    p = dens.p
    A, B = _ends(V, d)
    P = A[None, :, :] + _T4[:, None, None] * (B - A)[None, :, :]
    cross = _cross(A, B)
    w, dw, c = _revolution(P, d)
    Rn = np.maximum(np.hypot(P[:, :, 0], P[:, :, 1]), 1e-300)
    Rp = Rn ** p
    # the fan integrand w*(cp |P|^p + ca), the uniform part a*w integrated exactly by
    # the same nodes (its radial factor is 1/d), and its gradient in P
    cp, ca = c * _radial_factor(p + (d - 1)), c * dens.a / d
    f = cp * Rp + ca
    S = np.einsum("j,jn->n", _WT4, w * f)
    grad_f = (cp * p * w * Rn ** (p - 2.0))[:, :, None] * P + f[:, :, None] * dw
    # each vertex's share of the nodes on the edges it starts and ends
    T0 = np.einsum("j,jnk->nk", _WT4 * (1.0 - _T4), grad_f)
    T1 = np.einsum("j,jnk->nk", _WT4 * _T4, grad_f)
    return float((cross * S).sum()), _gather(S[:, None] * _perp(B) + cross[:, None] * T0,
                                             cross[:, None] * T1 - S[:, None] * _perp(A), d)


# The per-state kernels, looked up by name when the driver runs.
_perimeter = functools.partial(_functional, d=2)
_perimeter_grad = functools.partial(_functional_grad, d=2)
_mass = functools.partial(_fan_mass, d=2)
_mass_grad = functools.partial(_fan_mass_grad, d=2)
_rev_area = functools.partial(_functional, d=3)
_rev_area_grad = functools.partial(_functional_grad, d=3)
_rev_mass = functools.partial(_fan_mass, d=3)
_rev_mass_grad = functools.partial(_fan_mass_grad, d=3)


def weighted_perimeter_2d(dens: Density, curve: PolyCurve) -> float:
    """Weighted perimeter: sum of edge lengths times the density at edge midpoints."""
    V = curve.vertices
    E = _edges(V, 2)
    if np.min(np.hypot(E[:, 0], E[:, 1])) <= 0.0:
        raise ValueError("curve has a zero-length edge")
    return _perimeter(dens, V)


def weighted_mass_2d(dens: Density, curve: PolyCurve) -> float:
    """Weighted mass a*A_u + integral of r**p over the enclosed region.

    The r**p part is integrated by fanning signed triangles from the
    origin; A_u is the shoelace area.  The curve must be star-shaped
    about its centroid.
    """
    V = curve.vertices
    if not _star_ok(V, V.mean(axis=0)):
        raise ValueError("curve is not star-shaped about its centroid")
    return _mass(dens, V)


def perimeter_gradient_2d(dens: Density, curve: PolyCurve) -> np.ndarray:
    """Analytic gradient of the weighted perimeter with respect to each vertex."""
    return _perimeter_grad(dens, curve.vertices)[1]


def mass_gradient_2d(dens: Density, curve: PolyCurve) -> np.ndarray:
    """Analytic gradient of the weighted mass with respect to each vertex."""
    return _mass_grad(dens, curve.vertices)[1]


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


def _normals(V: np.ndarray, d: int) -> np.ndarray:
    """Unit vertex normals: the normalized sum of the two adjacent edges' normals."""
    E = _edges(V, d)
    L = np.maximum(np.hypot(E[:, 0], E[:, 1]), 1e-300)
    ne = _perp(E) / L[:, None]  # outward for ccw
    nv = _gather(ne, ne, d)
    nn = np.maximum(np.hypot(nv[:, 0], nv[:, 1]), 1e-300)
    return nv / nn[:, None]


_vertex_normals = functools.partial(_normals, d=2)


def _project(dens: Density, V: np.ndarray, M0: float, mass, mass_grad, normals,
             chord) -> np.ndarray:
    """Restore the mass to a relative 1e-10 by offsets along normals.

    The residual comes from the mass-only kernel.  chord, (N, slope) of
    the iterate a line-search trial was taken from, makes the offsets
    chord steps along N with that slope, so a trial takes no gradient;
    without one, when its slope is not positive, and from the first chord
    step that does not shrink the residual on, each offset is a Newton
    step along the state's own normals with a fresh mass gradient.
    A V whose mass is already within tolerance is returned itself.
    """
    N, slope = chord if chord is not None else (None, 0.0)
    newton = not slope > 0.0
    last = math.inf
    for _ in range(15):
        resid = mass(dens, V) - M0
        if abs(resid) <= 1e-10 * M0:
            return V
        if newton or not abs(resid) < last:
            newton = True
            N = normals(V)
            slope = float((mass_grad(dens, V)[1] * N).sum())
            if slope <= 0.0:
                raise NumericError("mass projection lost its outward slope")
        last = abs(resid)
        V = V + (-resid / slope) * N
    raise NumericError("mass projection did not converge")


def _project_mass(dens: Density, V: np.ndarray, M0: float, chord=None) -> np.ndarray:
    """Mass projection of a closed polygon along its vertex normals."""
    return _project(dens, V, M0, _mass, _mass_grad, _vertex_normals, chord)


def _catmull_rom(P0, P1, P2, P3, t):
    t = t[:, None]
    return 0.5 * (2.0 * P1 + (P2 - P0) * t
                  + (2.0 * P0 - 5.0 * P1 + 4.0 * P2 - P3) * t * t
                  + (3.0 * P1 - P0 - 3.0 * P2 + P3) * t * t * t)


def _resample(V: np.ndarray, d: int) -> np.ndarray:
    """Redistribute vertices uniformly in arc length along the loop or the profile.

    Cubic (Catmull-Rom) interpolation: a piecewise-linear resampler would
    leave C0 kinks that dominate any curvature diagnostic afterwards.
    """
    E = _edges(V, d)
    seg = np.hypot(E[:, 0], E[:, 1])
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], len(V), endpoint=d == 3)
    idx = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(seg) - 1)
    t = (targets - s[idx]) / seg[idx]
    # row i + 1 holds V[i]: the loop wraps around, the profile extends straight past its ends
    ext = (np.vstack([V[-1:], V, V[:2]]) if d == 2 else
           np.vstack([V[0] + (V[0] - V[1]), V, V[-1] + (V[-1] - V[-2])]))
    return _catmull_rom(ext[idx], ext[idx + 1], ext[idx + 2], ext[idx + 3], t)


_resample_closed = functools.partial(_resample, d=2)


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


def _curvature_spread(dens: Density, V: np.ndarray) -> float:
    """Relative spread of the generalized curvature over the vertices.

    Uses finite differences of r(theta) in the polar parametrization about
    the origin; NaN when the origin is not safely interior.
    """
    r = np.hypot(V[:, 0], V[:, 1])
    if not _star_ok(V, np.zeros(2)) or np.min(r) < 1e-3 * np.max(r):
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
# The descent driver, shared by both states: each function takes the state's
# kernels as arguments, bound by thin per-state entry points.
# ---------------------------------------------------------------------------

def _first_trial(step0: float, last: float) -> float:
    """Initial step of a line search: near the step the last search remembered.

    Nocedal & Wright's initial-step heuristic: start at twice the memory
    of the previous search along the same direction (its accepted step,
    or its smallest trial when it failed), capped at step0; with nothing
    on record (last == 0.0: a new run or a fresh resample) start at
    step0.  Twice, not four times: a search that opens at 4t mostly
    fails there and at 2t before it accepts t, two projections wasted.
    """
    return min(2.0 * last, step0) if last > 0.0 else step0


def _line_search(dens: Density, V: np.ndarray, M0: float, per: float, dhat: np.ndarray,
                 step0: float, chord, ok, project, functional
                 ) -> tuple[np.ndarray, float, float, float]:
    """Backtracking move along dhat (unit max-displacement) with mass re-projection.

    Each trial is projected with chord, the (normals, mass slope) pair of
    the iterate (see _project; None projects by Newton steps), and is
    accepted when the projection succeeds, the functional does not rise
    and ok holds both before and after the projection.  The cheap
    functional test runs first and the validity tests only on trials that
    pass it; a projection that returns its input unchanged is tested once.

    Returns (V, functional, step, memory): step is the accepted step
    length, or 0.0 (and the input V, per) when no trial was accepted.
    memory, from which _first_trial starts the next search along the same
    direction, is the accepted step or, after a failure, the smallest
    trial made (step0 if none was): a direction that has stopped
    descending is not halved again all the way down from the cap.
    Halving stops at 1e-14 of the state's extent, so a tiny curve is
    searched as a large one is.
    """
    floor = 1e-14 * float(np.abs(V).max())
    t = step0
    while t > floor:
        Vt = V + t * dhat
        try:
            Vp = project(dens, Vt, M0, chord)
        except NumericError:
            t *= 0.5
            continue
        pt = functional(dens, Vp)
        if pt <= per and ok(Vt) and (Vp is Vt or ok(Vp)):
            return Vp, pt, t, t
        t *= 0.5
    return V, per, 0.0, min(2.0 * t, step0)


def _unit(direction: np.ndarray):
    """direction scaled to unit max-displacement, or None when it vanishes."""
    dmax = float(np.abs(direction).max())
    return direction / dmax if dmax > 1e-300 else None


def _rigid_shift(d: np.ndarray, free: tuple[float, float]):
    """Unit translation along the mean of the field's free components, or None."""
    shift = d.mean(axis=0) * free
    norm = float(math.hypot(shift[0], shift[1]))
    return shift / norm if norm > 1e-300 else None


def _descend(dens: Density, V: np.ndarray, M0: float, per: float, step0: float,
             steps: list[float], functional_grad, mass_grad, normals, smooth, pin, free,
             search) -> tuple[np.ndarray, float, bool]:
    """One projected-descent iteration; returns (V, functional, accepted).

    The direction is -grad(P) with its component along grad(M) removed;
    the Sobolev-smoothed direction is searched first, then the raw one,
    which cleans up the vertex noise the smoother leaves.  Vertex-wise
    descent leaves the rigid motion of an off-centre optimum nearly
    stationary at fine resolutions, so a third search translates the
    state along the mean of the field on its free axes; the projection
    then slides the radius along the constraint.  Trials are accepted
    only if valid and not longer (in the functional) than before.  pin
    zeroes the degrees of freedom the state holds fixed.

    steps holds the memory of the three searches (see _line_search; 0.0
    for none); each search starts near its entry (see _first_trial) and
    the list is updated in place.  The searches project their trials
    with the iterate's normals and mass slope (see _project).
    """
    gP = pin(functional_grad(dens, V)[1])
    gM = pin(mass_grad(dens, V)[1])
    N = normals(V)
    chord = (N, float((gM * N).sum()))
    # the inner products take copies scaled by exact powers of two: at
    # huge masses |gM| passes 1e154 and its square overflows
    gP, gM = (np.ldexp(g, -np.frexp(np.abs(g).max())[1]) for g in (gP, gM))
    gM2 = float((gM * gM).sum())
    if not gM2 > 0.0:  # the whole gradient underflowed
        raise NumericError("mass gradient vanished")
    lam = float((gP * gM).sum() / gM2)
    d = -gP + lam * gM
    ds = smooth(d)
    ds = pin(ds - (float((ds * gM).sum()) / gM2) * gM)
    moved = False
    for k, dhat in enumerate((_unit(ds), _unit(d), _rigid_shift(d, free))):
        if dhat is not None:
            V, per, step, steps[k] = search(dens, V, M0, per, dhat,
                                            _first_trial(step0, steps[k]), chord)
            moved = moved or step > 0.0
    return V, per, moved


def _check_run(M0: float, max_iters: int, tol: float) -> None:
    """ValueError unless M0 is a valid mass, max_iters >= 0 and 0 <= tol < inf."""
    check_mass(M0)
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")


def _drive(dens: Density, V: np.ndarray, M0: float, max_iters: int, tol: float,
           project, functional, mass, step, edges, resample):
    """Project V onto the mass constraint and descend until the run stops.

    Stops when the functional's relative decrease over 50 iterations falls
    below tol or after 25 iterations in a row without an accepted step;
    resamples after every 100 accepted steps and then forgets the line
    searches' memories, as at the start.  Returns (V, functional, mass,
    iterations, converged).
    """
    V = project(dens, V, M0)
    per = functional(dens, V)
    iterations = 0
    history = [per]
    steps = [0.0, 0.0, 0.0]  # line-search memory per search direction
    stalled = 0
    since_resample = 0
    plateau = False
    while iterations < max_iters:
        iterations += 1
        E = edges(V)
        step0 = 0.1 * float(np.hypot(E[:, 0], E[:, 1]).mean())
        V, per, accepted = step(dens, V, M0, per, step0, steps)
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
            V = project(dens, resample(V), M0)
            per = functional(dens, V)
            steps = [0.0, 0.0, 0.0]
            since_resample = 0
    M = mass(dens, V)
    converged = abs(M - M0) <= 1e-8 * M0 and (plateau or stalled >= 25)
    return V, per, M, iterations, bool(converged)


def _try_direction(dens: Density, V: np.ndarray, M0: float, per: float, dhat: np.ndarray,
                   step0: float, chord) -> tuple[np.ndarray, float, float, float]:
    """Line search for a closed polygon, which must stay star-shaped."""
    return _line_search(dens, V, M0, per, dhat, step0, chord,
                        lambda Vt: _star_ok(Vt, _centroid(Vt)), _project_mass, _perimeter)


def descent_step(dens: Density, V: np.ndarray, M0: float, per: float,
                 step0: float, steps: list[float]) -> tuple[np.ndarray, float, bool]:
    """One projected-descent iteration of a closed polygon (see _descend)."""
    return _descend(dens, V, M0, per, step0, steps, _perimeter_grad, _mass_grad,
                    _vertex_normals, functools.partial(_smooth, d=2), lambda g: g, (1.0, 1.0),
                    _try_direction)


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


def _evolve(d: int, dens: Density, M0: float, n: int, max_iters: int,
            tol: float) -> EvolveReport:
    """Start, drive and report a run of the loop (d = 2) or the profile (d = 3)."""
    _check_run(M0, max_iters, tol)
    least, points = (64, "vertices") if d == 2 else (17, "profile points")
    if n < least:
        raise ValueError(f"need at least {least} {points}")
    start = (spectral_2d if d == 2 else spectral_3d_axisym)(dens, M0)
    if start.certified:
        V = start.sample(n)
    else:  # a circle, or a sphere's half-circle profile from pole to pole
        R = symmetric_ball(dens, Dimension(d), M0).radius
        theta = np.linspace(0.0, _TWO_PI / (d - 1), n, endpoint=d == 3)
        V = np.column_stack([_initial_center(dens, R) + R * np.cos(theta), R * np.sin(theta)])
        if d == 3:
            _pin_poles(V)
    project, functional, mass, step, resample = (
        (_project_mass, _perimeter, _mass, descent_step, _resample_closed) if d == 2 else
        (_project_mass_rev, _rev_area, _rev_mass, _rev_step, _resample_profile))
    V, per, M, iterations, converged = _drive(dens, V, M0, max_iters, tol, project, functional,
                                              mass, step, functools.partial(_edges, d=d),
                                              resample)
    A, B = _ends(V, d)
    w, _, c = _revolution(0.5 * (A + B), d)
    E = B - A
    cx, cy, R_fit = _fit_circle(V)
    # in 3D the curve is the full meridional cross-section: profile plus its mirror image
    closed = V if d == 2 else np.vstack([V, V[-2:0:-1] * [1.0, -1.0]])
    return EvolveReport(
        final_curve=PolyCurve(closed, validate=False),
        weighted_perimeter=per,
        weighted_mass=M,
        unweighted_perimeter=c * float((w * np.hypot(E[:, 0], E[:, 1])).sum()),
        unweighted_area=_volume(A[:, 1], B[:, 1], _cross(A, B), d),
        iterations=iterations,
        converged=converged,
        curvature_spread=_curvature_spread(dens, V) if d == 2 else math.nan,
        radius_estimate=R_fit,
        center_offset_estimate=float(math.hypot(cx, cy if d == 2 else 0.0)),
    )


# ---------------------------------------------------------------------------
# Axisymmetric 3D: a half-profile polyline revolved about the x-axis.
# The profile runs from the right pole to the left pole through y > 0.
# ---------------------------------------------------------------------------

def _pin_poles(G: np.ndarray) -> np.ndarray:
    """Zero the y components of the two poles in place: they stay on the axis."""
    G[0, 1] = G[-1, 1] = 0.0
    return G


def _profile_normals(W: np.ndarray) -> np.ndarray:
    N = _normals(W, 3)
    # poles move along the axis only (so offsets along N keep them on it);
    # the profile runs right pole -> left pole
    N[0] = [1.0, 0.0]
    N[-1] = [-1.0, 0.0]
    return N


def _profile_ok(W: np.ndarray) -> bool:
    if (W[1:-1, 1] <= 0.0).any():
        return False
    if W[0, 0] <= W[-1, 0]:
        return False
    # closing the profile back along the axis must give a star-shaped loop
    return _star_ok(W, _centroid(W))


def _project_mass_rev(dens: Density, W: np.ndarray, M0: float, chord=None) -> np.ndarray:
    """Mass projection of a profile; the pole normals keep the poles on the axis."""
    return _project(dens, W, M0, _rev_mass, _rev_mass_grad, _profile_normals, chord)


def _resample_profile(W: np.ndarray) -> np.ndarray:
    """Resample a profile (see _resample); the poles stay where they were."""
    out = _resample(W, 3)
    out[0], out[-1] = W[0], W[-1]
    return _pin_poles(out)


def _try_direction_rev(dens: Density, W: np.ndarray, M0: float, area: float,
                       dhat: np.ndarray, step0: float, chord
                       ) -> tuple[np.ndarray, float, float, float]:
    """Line search for a profile; dhat must keep the poles' y at zero, as _descend's do."""
    return _line_search(dens, W, M0, area, dhat, step0, chord, _profile_ok,
                        _project_mass_rev, _rev_area)


def _rev_step(dens: Density, W: np.ndarray, M0: float, area: float,
              step0: float, steps: list[float]) -> tuple[np.ndarray, float, bool]:
    """One projected-descent iteration of a profile (see _descend)."""
    return _descend(dens, W, M0, area, step0, steps, _rev_area_grad, _rev_mass_grad,
                    _profile_normals, functools.partial(_smooth, d=3), _pin_poles, (1.0, 0.0),
                    _try_direction_rev)


def evolve_3d_axisym(dens: Density, M0: float, n: int = 129, max_iters: int = 4000,
                     tol: float = 1e-9) -> EvolveReport:
    """Minimize weighted surface area at fixed weighted mass, axisymmetrically.

    The state is a half-profile polyline revolved about the x-axis, with
    the poles pinned to the axis; otherwise the scheme matches evolve_2d.
    It starts from the certified spectral optimum (spectral_3d_axisym),
    sampled at n points equally spaced in arc length from pole to pole,
    or else from the displaced sphere.
    """
    return _evolve(3, dens, M0, n, max_iters, tol)
