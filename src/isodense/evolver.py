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
def _radial_factor(p: float) -> float:
    # integral of u**(p+1) over [0,1]; exact 1/(p+2) for the polynomial cases
    return float(np.sum(_WU7 * _U7 ** (p + 1.0)))


@functools.cache
def _radial_factor_rev(p: float) -> float:
    # integral of u**(p+2) over [0,1], for surfaces of revolution
    return float(np.sum(_WU7 * _U7 ** (p + 2.0)))


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
    """True if the closed vertex loop winds once, monotonically, about ref."""
    W = V - ref
    if np.hypot(W[:, 0], W[:, 1]).min() <= 0.0:
        return False
    ang = np.arctan2(W[:, 1], W[:, 0])
    steps = np.mod(_next(ang) - ang, _TWO_PI)
    return abs(float(steps.sum()) - _TWO_PI) < 1e-9 and float(steps.max()) < math.pi


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
        E = _next(V) - V
        if np.min(np.hypot(E[:, 0], E[:, 1])) <= 0.0:
            raise ValueError("curve has a zero-length edge")
        if _signed_area(V) <= 0.0:
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
        E = _next(self._V) - self._V
        return float(np.sum(np.hypot(E[:, 0], E[:, 1])))

    def unweighted_area(self) -> float:
        return _signed_area(self._V)


def _signed_area(V: np.ndarray) -> float:
    Vn = _next(V)
    return 0.5 * float(np.sum(V[:, 0] * Vn[:, 1] - V[:, 1] * Vn[:, 0]))


def _perimeter(dens: Density, V: np.ndarray) -> float:
    Vn = _next(V)
    E = Vn - V
    L = np.hypot(E[:, 0], E[:, 1])
    mid = 0.5 * (V + Vn)
    rm = np.hypot(mid[:, 0], mid[:, 1])
    return float((L * (rm ** dens.p + dens.a)).sum())


def _perimeter_grad(dens: Density, V: np.ndarray) -> tuple[float, np.ndarray]:
    p, a = dens.p, dens.a
    Vn = _next(V)
    E = Vn - V
    L = np.hypot(E[:, 0], E[:, 1])
    mid = 0.5 * (V + Vn)
    rm = np.maximum(np.hypot(mid[:, 0], mid[:, 1]), 1e-300)
    rho = rm ** p + a
    per = float((L * rho).sum())
    ehat = E / L[:, None]
    # d(rho(rm))/d(mid) pulled back to the two edge vertices (factor 1/2 each)
    radial = (0.5 * L * p * rm ** (p - 2.0))[:, None] * mid
    g_start = -rho[:, None] * ehat + radial
    g_end = rho[:, None] * ehat + radial
    return per, g_start + _prev(g_end)


def _mass(dens: Density, V: np.ndarray) -> float:
    p, a = dens.p, dens.a
    Vn = _next(V)
    cross = V[:, 0] * Vn[:, 1] - V[:, 1] * Vn[:, 0]
    P = V[None, :, :] + _T4[:, None, None] * (Vn - V)[None, :, :]
    Rn = np.hypot(P[:, :, 0], P[:, :, 1])
    S = np.einsum("j,jn->n", _WT4, Rn ** p)
    return a * 0.5 * float(cross.sum()) + _radial_factor(p) * float((cross * S).sum())


def _mass_grad(dens: Density, V: np.ndarray) -> tuple[float, np.ndarray]:
    p, a = dens.p, dens.a
    Vn = _next(V)
    cross = V[:, 0] * Vn[:, 1] - V[:, 1] * Vn[:, 0]
    E = Vn - V
    P = V[None, :, :] + _T4[:, None, None] * E[None, :, :]
    Rn = np.maximum(np.hypot(P[:, :, 0], P[:, :, 1]), 1e-300)
    Rp = Rn ** p
    S = np.einsum("j,jn->n", _WT4, Rp)
    cp = _radial_factor(p)
    mass = a * 0.5 * float(cross.sum()) + cp * float((cross * S).sum())

    # gradient of the shoelace area
    gA = 0.5 * _perp(Vn - _prev(V))
    # d|P|^p / dP = p |P|^(p-2) P, weighted by the node shares of each vertex
    core = p * Rn ** (p - 2.0)
    T0 = np.einsum("j,jn,jnk->nk", _WT4 * (1.0 - _T4), core, P)
    T1 = np.einsum("j,jn,jnk->nk", _WT4 * _T4, core, P)
    d_cross_start = _perp(Vn)
    d_cross_end = -_perp(V)
    term_start = S[:, None] * d_cross_start + cross[:, None] * T0
    term_end = S[:, None] * d_cross_end + cross[:, None] * T1
    G = a * gA + cp * (term_start + _prev(term_end))
    return mass, G


def weighted_perimeter_2d(dens: Density, curve: PolyCurve) -> float:
    """Weighted perimeter: sum of edge lengths times the density at edge midpoints."""
    V = curve.vertices
    E = _next(V) - V
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


def _smooth_closed(d: np.ndarray, k0: float = 4.0) -> np.ndarray:
    """Sobolev-precondition a vertex field: damp mode k by 1/(1 + (k/k0)**2).

    Vertex-wise descent directions are dominated by mesh-frequency
    components that cap the accepted step length; damping them makes the
    convergence rate independent of the resolution without changing the
    stationary points.
    """
    n = len(d)
    spec = np.fft.rfft(d, axis=0)
    k = np.arange(spec.shape[0])
    mult = 1.0 / (1.0 + (n / (math.pi * k0)) ** 2 * np.sin(math.pi * k / n) ** 2)
    return np.fft.irfft(spec * mult[:, None], n=n, axis=0)


def _smooth_open(d: np.ndarray, k0: float = 4.0) -> np.ndarray:
    """Same smoother for an open polyline field, via even/Neumann extension."""
    ext = np.vstack([d, d[-2:0:-1]])
    return _smooth_closed(ext, k0)[: len(d)]


def _vertex_normals(V: np.ndarray) -> np.ndarray:
    E = _next(V) - V
    L = np.maximum(np.hypot(E[:, 0], E[:, 1]), 1e-300)
    ne = _perp(E) / L[:, None]  # outward for ccw
    nv = ne + _prev(ne)
    nn = np.maximum(np.hypot(nv[:, 0], nv[:, 1]), 1e-300)
    return nv / nn[:, None]


def _project(dens: Density, V: np.ndarray, M0: float, mass, mass_grad, normals,
             chord) -> np.ndarray:
    """Restore the mass to a relative 1e-10 by offsets along normals.

    The residual comes from the mass-only kernel.  chord, (N, slope) of
    the iterate a line-search trial was taken from, makes the offsets
    chord steps along N with that slope, so a trial takes no gradient;
    without one, when its slope is not positive, and from the first chord
    step that does not shrink the residual on, each offset is a Newton
    step along the state's own normals with a fresh mass gradient.
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


def _resample_closed(V: np.ndarray) -> np.ndarray:
    """Redistribute vertices uniformly in arc length (closed curve).

    Cubic (Catmull-Rom) interpolation: a piecewise-linear resampler would
    leave C0 kinks that dominate any curvature diagnostic afterwards.
    """
    n = len(V)
    Vc = np.vstack([V, V[:1]])
    seg = np.hypot(np.diff(Vc[:, 0]), np.diff(Vc[:, 1]))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], n, endpoint=False)
    idx = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, n - 1)
    t = (targets - s[idx]) / seg[idx]
    return _catmull_rom(V[(idx - 1) % n], V[idx], V[(idx + 1) % n],
                        V[(idx + 2) % n], t)


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
    the iterate (see _project; None projects by Newton steps).

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
        if ok(Vt):
            try:
                Vt = project(dens, Vt, M0, chord)
            except NumericError:
                t *= 0.5
                continue
            if ok(Vt):
                pt = functional(dens, Vt)
                if pt <= per:
                    return Vt, pt, t, t
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
                        lambda Vt: _star_ok(Vt, Vt.mean(axis=0)), _project_mass, _perimeter)


def descent_step(dens: Density, V: np.ndarray, M0: float, per: float,
                 step0: float, steps: list[float]) -> tuple[np.ndarray, float, bool]:
    """One projected-descent iteration of a closed polygon (see _descend)."""
    return _descend(dens, V, M0, per, step0, steps, _perimeter_grad, _mass_grad,
                    _vertex_normals, _smooth_closed, lambda g: g, (1.0, 1.0), _try_direction)


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
    _check_run(M0, max_iters, tol)
    if n < 64:
        raise ValueError("need at least 64 vertices")
    start = spectral_2d(dens, M0)
    if start.certified:
        V = start.sample(n)
    else:
        R = symmetric_ball(dens, Dimension(2), M0).radius
        V = PolyCurve.circle(R, center=(_initial_center(dens, R), 0.0), n=n).vertices
    V, per, mass, iterations, converged = _drive(
        dens, V, M0, max_iters, tol, _project_mass, _perimeter, _mass, descent_step,
        lambda X: _next(X) - X, _resample_closed)
    curve = PolyCurve(V, validate=False)
    cx, cy, R_fit = _fit_circle(V)
    return EvolveReport(
        final_curve=curve,
        weighted_perimeter=per,
        weighted_mass=mass,
        unweighted_perimeter=curve.unweighted_perimeter(),
        unweighted_area=curve.unweighted_area(),
        iterations=iterations,
        converged=converged,
        curvature_spread=_curvature_spread(dens, V),
        radius_estimate=R_fit,
        center_offset_estimate=float(math.hypot(cx, cy)),
    )


# ---------------------------------------------------------------------------
# Axisymmetric 3D: a half-profile polyline revolved about the x-axis.
# The profile runs from the right pole to the left pole through y > 0.
# ---------------------------------------------------------------------------

def _rev_area(dens: Density, W: np.ndarray) -> float:
    A, B = W[:-1], W[1:]
    E = B - A
    L = np.hypot(E[:, 0], E[:, 1])
    mid = 0.5 * (A + B)
    rm = np.hypot(mid[:, 0], mid[:, 1])
    return _TWO_PI * float((mid[:, 1] * L * (rm ** dens.p + dens.a)).sum())


def _rev_area_grad(dens: Density, W: np.ndarray) -> tuple[float, np.ndarray]:
    p, a = dens.p, dens.a
    A, B = W[:-1], W[1:]
    E = B - A
    L = np.hypot(E[:, 0], E[:, 1])
    mid = 0.5 * (A + B)
    ym = mid[:, 1]
    rm = np.maximum(np.hypot(mid[:, 0], mid[:, 1]), 1e-300)
    rho = rm ** p + a
    area = _TWO_PI * float((ym * L * rho).sum())
    ehat = E / L[:, None]
    radial = (0.5 * ym * L * p * rm ** (p - 2.0))[:, None] * mid
    y_term = np.column_stack([np.zeros_like(ym), 0.5 * L * rho])
    g_start = -(ym * rho)[:, None] * ehat + radial + y_term
    g_end = (ym * rho)[:, None] * ehat + radial + y_term
    G = np.zeros_like(W)
    G[:-1] += g_start
    G[1:] += g_end
    return area, _TWO_PI * G


def _rev_mass(dens: Density, W: np.ndarray) -> float:
    p, a = dens.p, dens.a
    A, B = W[:-1], W[1:]
    cross = A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]
    P = A[None, :, :] + _T4[:, None, None] * (B - A)[None, :, :]
    Rn = np.hypot(P[:, :, 0], P[:, :, 1])
    T = np.einsum("j,jn->n", _WT4, P[:, :, 1] * Rn ** p)
    vol = math.pi / 3.0 * float((cross * (A[:, 1] + B[:, 1])).sum())
    return a * vol + _TWO_PI * _radial_factor_rev(p) * float((cross * T).sum())


def _rev_mass_grad(dens: Density, W: np.ndarray) -> tuple[float, np.ndarray]:
    p, a = dens.p, dens.a
    A, B = W[:-1], W[1:]
    E = B - A
    cross = A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]
    P = A[None, :, :] + _T4[:, None, None] * E[None, :, :]
    Rn = np.maximum(np.hypot(P[:, :, 0], P[:, :, 1]), 1e-300)
    Rp = Rn ** p
    yP = P[:, :, 1]
    T = np.einsum("j,jn->n", _WT4, yP * Rp)
    cp = _radial_factor_rev(p)
    vol = math.pi / 3.0 * float((cross * (A[:, 1] + B[:, 1])).sum())
    mass = a * vol + _TWO_PI * cp * float((cross * T).sum())

    core = p * yP[:, :, None] * Rn[:, :, None] ** (p - 2.0) * P
    core[:, :, 1] += Rp
    dT0 = np.einsum("j,jnk->nk", _WT4 * (1.0 - _T4), core)
    dT1 = np.einsum("j,jnk->nk", _WT4 * _T4, core)
    d_cross_start = _perp(B)
    d_cross_end = -_perp(A)
    ysum = A[:, 1] + B[:, 1]
    y_unit = np.column_stack([np.zeros_like(ysum), np.ones_like(ysum)])
    gV_start = math.pi / 3.0 * (d_cross_start * ysum[:, None] + cross[:, None] * y_unit)
    gV_end = math.pi / 3.0 * (d_cross_end * ysum[:, None] + cross[:, None] * y_unit)
    gM_start = _TWO_PI * cp * (d_cross_start * T[:, None] + cross[:, None] * dT0)
    gM_end = _TWO_PI * cp * (d_cross_end * T[:, None] + cross[:, None] * dT1)
    G = np.zeros_like(W)
    G[:-1] += a * gV_start + gM_start
    G[1:] += a * gV_end + gM_end
    return mass, G


def _pin_poles(G: np.ndarray) -> np.ndarray:
    """Zero the y components of the two poles in place: they stay on the axis."""
    G[0, 1] = G[-1, 1] = 0.0
    return G


def _profile_normals(W: np.ndarray) -> np.ndarray:
    E = W[1:] - W[:-1]
    L = np.maximum(np.hypot(E[:, 0], E[:, 1]), 1e-300)
    ne = _perp(E) / L[:, None]
    N = np.zeros_like(W)
    N[:-1] += ne
    N[1:] += ne
    nn = np.maximum(np.hypot(N[:, 0], N[:, 1]), 1e-300)
    N = N / nn[:, None]
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
    return _star_ok(W, W.mean(axis=0))


def _project_mass_rev(dens: Density, W: np.ndarray, M0: float, chord=None) -> np.ndarray:
    """Mass projection of a profile; the pole normals keep the poles on the axis."""
    return _project(dens, W, M0, _rev_mass, _rev_mass_grad, _profile_normals, chord)


def _resample_profile(W: np.ndarray) -> np.ndarray:
    n = len(W)
    seg = np.hypot(np.diff(W[:, 0]), np.diff(W[:, 1]))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], n)
    idx = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, n - 2)
    t = (targets - s[idx]) / seg[idx]
    ext = np.vstack([W[0] + (W[0] - W[1]), W, W[-1] + (W[-1] - W[-2])])
    out = _catmull_rom(ext[idx], ext[idx + 1], ext[idx + 2], ext[idx + 3], t)
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
                    _profile_normals, _smooth_open, _pin_poles, (1.0, 0.0), _try_direction_rev)


def evolve_3d_axisym(dens: Density, M0: float, n: int = 129, max_iters: int = 4000,
                     tol: float = 1e-9) -> EvolveReport:
    """Minimize weighted surface area at fixed weighted mass, axisymmetrically.

    The state is a half-profile polyline revolved about the x-axis, with
    the poles pinned to the axis; otherwise the scheme matches evolve_2d.
    It starts from the certified spectral optimum (spectral_3d_axisym),
    sampled at n points equally spaced in arc length from pole to pole,
    or else from the displaced sphere.
    """
    _check_run(M0, max_iters, tol)
    if n < 17:
        raise ValueError("need at least 17 profile points")
    start = spectral_3d_axisym(dens, M0)
    if start.certified:
        W = start.sample(n)
    else:
        R = symmetric_ball(dens, Dimension(3), M0).radius
        theta = np.linspace(0.0, math.pi, n)
        W = _pin_poles(np.column_stack([_initial_center(dens, R) + R * np.cos(theta),
                                        R * np.sin(theta)]))
    W, area, mass, iterations, converged = _drive(
        dens, W, M0, max_iters, tol, _project_mass_rev, _rev_area, _rev_mass, _rev_step,
        lambda X: np.diff(X, axis=0), _resample_profile)
    # full meridional cross-section: profile plus its mirror image
    curve = PolyCurve(np.vstack([W, W[-2:0:-1] * [1.0, -1.0]]), validate=False)
    cx, cy, R_fit = _fit_circle(W)
    A, B = W[:-1], W[1:]
    L = np.hypot((B - A)[:, 0], (B - A)[:, 1])
    area_u = _TWO_PI * float(np.sum(0.5 * (A[:, 1] + B[:, 1]) * L))
    cross = A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]
    vol_u = math.pi / 3.0 * float(np.sum(cross * (A[:, 1] + B[:, 1])))
    return EvolveReport(
        final_curve=curve,
        weighted_perimeter=area,
        weighted_mass=mass,
        unweighted_perimeter=area_u,
        unweighted_area=vol_u,
        iterations=iterations,
        converged=converged,
        curvature_spread=math.nan,
        radius_estimate=R_fit,
        center_offset_estimate=float(abs(cx)),
    )
