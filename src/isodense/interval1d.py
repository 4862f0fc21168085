"""Isoperimetric intervals on the real line under the density |x|**p + a.

For 0 < p <= 1 the optimum has one end at the origin (p = 1/2 is also
checked against its cubic closed form).  For p = 2 the translation rule
gives it: under x**2 + a, moving an interval by c has the effect of
raising the offset to a + c**2, so the optimum is a symmetric interval
moved off the origin.  A constrained numerical minimizer covers every
other exponent, and an exhaustive grid oracle cross-checks them all.
The module also carries the multi-interval reduction (each half-line's
mass gathered into one interval from the origin) and the contour-grid
generator used to visualize the perimeter/mass landscape over the two
endpoints.  Every endpoint fixed by a mass comes from
density.radial_mass_inverse, the Newton inverse of the primitive.

An interval [alpha, beta] is always reported with alpha <= 0 < beta; the
weighted perimeter is rho(|alpha|) + rho(beta) = |alpha|**p + beta**p + 2a.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .density import MASS_RTOL, Density, Dimension, check_mass, critical_offset, radial_mass_inverse
from .numerics import NumericError

# Section search: nodes per bracket, and enough passes to narrow the bracket
# below 1e-12 * s_sym, since each pass keeps at most two of its cells.
_SECTIONS = 32
_SECTION_ITERS = math.ceil(math.log(1e-12) / math.log(2.0 / _SECTIONS))
_TIE_RTOL = 1e-14  # above the rounding noise of the scaled objective, ~(p+1) ulps
_BLOCK = 512  # offsets solved together; bounds the working memory of a long sweep

__all__ = [
    "Interval",
    "IntervalBranch",
    "IntervalSolution",
    "perimeter1d",
    "mass1d",
    "solve_p2",
    "solve_p1",
    "solve_p_lt_1",
    "solve_p_lt_1_batch",
    "solve_symmetric",
    "solve_general",
    "solve_general_batch",
    "brute_force_oracle",
    "reduce_intervals",
    "contour_grid",
    "ContourGrid",
    "contour_curvatures",
]


class IntervalBranch(enum.Enum):
    AT_ORIGIN = "at_origin"
    ASYMMETRIC = "asymmetric"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] on the real line."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class IntervalSolution:
    """A solved minimum-perimeter interval [alpha, beta] for a target mass.

    branch records which stationary family the optimum belongs to:
    one end at the origin, asymmetric straddling the origin, or symmetric
    about it; mass is its weighted mass.  lagrange_multiplier is the
    sensitivity of the minimal perimeter to the mass constraint, taken from
    the right-endpoint stationarity condition; it is None when not computed.
    """

    alpha: float
    beta: float
    perimeter: float
    mass: float
    branch: IntervalBranch
    lagrange_multiplier: Optional[float] = None

    def __post_init__(self):
        if not (self.alpha <= 0.0 < self.beta):
            raise ValueError("solution must satisfy alpha <= 0 < beta")


def perimeter1d(dens: Density, iv: Interval) -> float:
    """Weighted perimeter rho(|lo|) + rho(|hi|) of an interval."""
    return abs(iv.lo) ** dens.p + abs(iv.hi) ** dens.p + 2.0 * dens.a


def mass1d(dens: Density, iv: Interval) -> float:
    """Weighted mass of an interval: the integral of rho(|x|) over it."""
    F = dens.primitive
    if iv.lo <= 0.0 <= iv.hi:
        return F(iv.hi) + F(-iv.lo)
    return abs(F(abs(iv.hi)) - F(abs(iv.lo)))


def _multiplier(dens: Density, beta: float) -> float:
    # Stationarity at the free right end: d(perimeter)/d(beta) + lambda * rho(beta) = 0.
    b = np.float64(beta)
    with np.errstate(all="ignore"):  # b**(p-1) overflows to inf for p < 1 at subnormal b
        return float(-dens.p * b ** (dens.p - 1.0) / (b ** dens.p + dens.a))


def _invert_primitive_grid(dens: Density, m: np.ndarray) -> np.ndarray:
    """Vectorized inverse of the primitive for a nonnegative array of masses."""
    return radial_mass_inverse(dens.p, dens.a, m)


def _classify(alpha_abs: float, beta: float, rel_tol: float = 1e-6) -> IntervalBranch:
    scale = max(beta, alpha_abs)
    if alpha_abs <= rel_tol * scale:
        return IntervalBranch.AT_ORIGIN
    if abs(beta - alpha_abs) <= rel_tol * scale:
        return IntervalBranch.SYMMETRIC
    return IntervalBranch.ASYMMETRIC


def solve_p2(a: float, M0: float) -> IntervalSolution:
    """Minimum-perimeter interval for p = 2, offset a, mass M0.

    For rho = x**2 + a, moving an interval by c has the effect of raising
    the offset to a + c**2.  So at or above a_crit = critical_offset(2, d=1, M0)
    the optimum is the symmetric interval of solve_symmetric, and below it
    the symmetric interval [-R, R] of offset a_crit moved by
    r0 = sqrt(a_crit - a): beta = R + r0 and alpha = -a / beta, since
    R**2 = a_crit.  Its perimeter 4 * a_crit does not depend on a; at a = 0
    the left end is the origin.
    """
    dens = Density(2.0, a)  # validates a before it meets a_crit
    a_crit = critical_offset(2.0, Dimension(1), M0)
    if a >= a_crit:
        return solve_symmetric(dens, M0)
    beta = float(radial_mass_inverse(2.0, a_crit, 0.5 * M0)) + math.sqrt(a_crit - a)
    branch = IntervalBranch.AT_ORIGIN if a == 0.0 else IntervalBranch.ASYMMETRIC
    return _solution(dens, a / beta, beta, M0, branch)


def solve_p1(a: float, M0: float) -> IntervalSolution:
    """Minimum-perimeter interval for p = 1: one row of solve_p_lt_1_batch.

    One end is at the origin; the symmetric regime never occurs for p = 1.
    """
    return solve_p_lt_1_batch(1.0, [a], M0)[0]


def _beta_p_lt_1_closed(p: float, a: float, M0: float) -> Optional[float]:
    """Closed-form endpoint for p = 1/2 via the cubic in sqrt(beta).

    Valid while a <= (3*M0)**(1/3); returns None otherwise or for p != 1/2.
    The textbook expression for the cubic's resolvent Z is a difference of
    nearly equal terms for small a, so it is evaluated through the
    conjugate product Z = E / (D + sqrt(D^2 - E)) instead.  Returns None
    as well when a**6 overflows or Z evaluates to zero (M0 huge next to
    a**3, where D**2 overflows), leaving the Newton root to stand alone.
    """
    if p != 0.5:
        return None
    if a == 0.0:
        return (1.5 * M0) ** (2.0 / 3.0)
    try:
        d_term = 0.75 * M0 - a ** 3 / 8.0
        e_term = a ** 6 / 64.0
    except OverflowError:
        return None
    disc = d_term * d_term - e_term
    if disc < 0.0 or d_term <= 0.0:
        return None
    z = e_term / (d_term + math.sqrt(disc))
    z3 = z ** (1.0 / 3.0)
    if z3 == 0.0:
        return None
    s = a * a / (4.0 * z3) + z3 - 0.5 * a
    return s * s


def solve_p_lt_1_batch(p: float, a_values, M0: float) -> list[IntervalSolution]:
    """Minimum-perimeter intervals for 0 < p <= 1, one per offset: one end at the origin.

    beta, the root of beta**(p+1) = (p+1)*(M0 - a*beta), comes from one Newton
    primitive inverse over all offsets.  At p = 1/2 each row's cubic-in-sqrt(beta)
    closed form is also evaluated (where its discriminant permits) and must agree.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("this solver requires 0 < p <= 1")
    check_mass(M0)
    a_all = np.asarray(a_values, dtype=float).reshape(-1)
    dens = [Density(p, a) for a in a_all.tolist()]  # validates every offset
    out = []
    for d, beta in zip(dens, radial_mass_inverse(p, a_all, M0).tolist()):
        closed = _beta_p_lt_1_closed(p, d.a, M0)
        if closed is not None and not math.isclose(closed, beta, rel_tol=1e-6):
            raise NumericError(
                f"closed-form endpoint {closed} disagrees with Newton root {beta}")
        out.append(_solution(d, 0.0, beta, M0, IntervalBranch.AT_ORIGIN))
    return out


def solve_p_lt_1(dens: Density, M0: float) -> IntervalSolution:
    """Minimum-perimeter interval for 0 < p <= 1: one row of solve_p_lt_1_batch."""
    return solve_p_lt_1_batch(dens.p, [dens.a], M0)[0]


def solve_symmetric(dens: Density, M0: float) -> IntervalSolution:
    """Symmetric interval [-beta, beta] of mass M0 for p > 1.

    beta solves 2*beta**(p+1)/(p+1) + 2*a*beta = M0 (the d = 1 centred
    ball) by radial_mass_inverse; the perimeter is 2*beta**p + 2*a.  Only
    optimal above the critical offset, but well defined for any a.
    """
    if dens.p <= 1.0:
        raise ValueError("symmetric solver requires p > 1")
    check_mass(M0)
    beta = float(radial_mass_inverse(dens.p, dens.a, 0.5 * M0))
    return _solution(dens, beta, beta, M0, IntervalBranch.SYMMETRIC)


def _solution(dens: Density, s: float, beta: float, M0: float,
              branch: IntervalBranch) -> IntervalSolution:
    """[-s, beta] as a solution, once it meets the mass constraint to MASS_RTOL."""
    if not (s >= 0.0 and beta >= 0.0):  # a NaN or negative endpoint: the solve failed
        raise NumericError(f"endpoints [{-s}, {beta}] are not a valid interval")
    try:
        mass = dens.primitive(s) + dens.primitive(beta)
    except OverflowError:  # an endpoint's power past the float range
        mass = math.inf
    resid = abs(mass - M0) / M0
    if not resid <= MASS_RTOL:
        raise NumericError(f"relative mass residual {resid:.3e} exceeds {MASS_RTOL}")
    return IntervalSolution(-s, beta, s ** dens.p + beta ** dens.p + 2.0 * dens.a, mass,
                            branch, _multiplier(dens, beta))


def solve_general_batch(p: float, a_values, M0: float) -> list[IntervalSolution]:
    """Numerical minimum-perimeter intervals for any p > 0, one per offset.

    With s = |alpha|, the mass constraint gives beta(s) by the Newton
    primitive inverse, and s**p + beta**p is minimized over s in [0, s_sym]
    (s_sym the symmetric half-width) by a 32-point section search that keeps
    the two cells around the best node until they span under 1e-12 * s_sym.
    The exact s = 0 and symmetric candidates are always probed as well.
    Offsets go in blocks of _BLOCK; no row's result depends on the others.
    """
    check_mass(M0)
    a = np.asarray(a_values, dtype=float).reshape(-1)
    if a.size > _BLOCK:
        return [sol for k in range(0, a.size, _BLOCK)
                for sol in solve_general_batch(p, a[k:k + _BLOCK], M0)]
    dens = [Density(p, ak) for ak in a.tolist()]  # validates p and every offset
    s_sym = radial_mass_inverse(p, a, 0.5 * M0)
    col_a, col_s = a[:, None], s_sym[:, None]

    def objective(t):
        # (s**p + beta**p) / s_sym**p at s = t * s_sym, without the 2a that would swamp it
        s = t * col_s
        beta = radial_mass_inverse(p, col_a, M0 - (s ** (p + 1.0) / (p + 1.0) + col_a * s))
        return t ** p + (beta / col_s) ** p, beta

    rows = np.arange(a.size)
    lo, hi = np.zeros(a.size), np.ones(a.size)
    # near the top of the float range s_sym or beta overflow; _solution refuses the row
    with np.errstate(all="ignore"):
        for _ in range(_SECTION_ITERS):
            t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, _SECTIONS + 1)
            i = np.argmin(objective(t)[0], axis=1)
            lo, hi = t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, _SECTIONS)]
        # the exact s = 0, then symmetric, candidates win ties within rounding (flat near a_crit)
        cand = np.stack([np.zeros(a.size), np.ones(a.size), t[rows, i]], axis=1)
        per, betas = objective(cand)
        pick = np.argmax(per <= per.min(axis=1, keepdims=True) * (1.0 + _TIE_RTOL), axis=1)
        s_best, beta = (cand[rows, pick] * s_sym).tolist(), betas[rows, pick].tolist()
    out = []
    for k, d in enumerate(dens):
        s, b = s_best[k], beta[k]
        branch = _classify(s, b)
        if branch is IntervalBranch.SYMMETRIC:
            s = b = float(s_sym[k])
        elif branch is IntervalBranch.AT_ORIGIN:
            s, b = 0.0, float(betas[k, 0])
        out.append(_solution(d, s, b, M0, branch))
    return out


def solve_general(dens: Density, M0: float) -> IntervalSolution:
    """Numerical minimum-perimeter interval for any p > 0: one row of solve_general_batch."""
    return solve_general_batch(dens.p, [dens.a], M0)[0]


def brute_force_oracle(dens: Density, M0: float, grid_n: int) -> IntervalSolution:
    """Exhaustive minimum over a uniform grid of left endpoints.

    Scans |alpha| over [0, L] with F(L) = M0 (the widest feasible left
    extent), recovers each right endpoint from the mass constraint with
    the Newton primitive inverse, and returns the grid minimizer.  Accurate
    to O(L/grid_n) in the endpoints; an independent check on the solvers.
    """
    if grid_n < 100:
        raise ValueError("grid_n must be at least 100")
    check_mass(M0)
    p, a = dens.p, dens.a
    L = float(radial_mass_inverse(p, a, M0))
    s = np.linspace(0.0, L, grid_n)
    rest = np.maximum(M0 - (s ** (p + 1.0) / (p + 1.0) + a * s), 0.0)
    beta = _invert_primitive_grid(dens, rest)
    i = int(np.argmin(s ** p + beta ** p))  # without the shared 2a, which swamps large a
    s_i, b_i = float(s[i]), float(beta[i])
    if s_i > b_i:  # mirror image of the canonical optimum; reflect it back
        s_i, b_i = b_i, s_i
    grid_tol = max(1e-6, 2.0 * L / (grid_n - 1) / max(b_i, s_i, 1e-300))
    branch = _classify(s_i, b_i, rel_tol=grid_tol)
    if branch is IntervalBranch.AT_ORIGIN:
        s_i, b_i = 0.0, L
    return _solution(dens, s_i, b_i, M0, branch)


# ---------------------------------------------------------------------------
# Reduction of several intervals to one interval containing the origin.
# ---------------------------------------------------------------------------

def _half_line_end(dens: Density, parts: Sequence[tuple[float, float]]) -> float:
    """Upper end t of [0, t] holding the total mass of intervals on the half-line.

    F(t) is the sum of F(hi) - F(lo): the intervals slid down to abut one
    another and the origin.  rho increases away from the origin, so no
    slide raises the perimeter.
    """
    total = sum(dens.primitive(hi) - dens.primitive(lo) for lo, hi in parts)
    return float(radial_mass_inverse(dens.p, dens.a, total))


def reduce_intervals(dens: Density, ivs: Sequence[Interval]) -> Interval:
    """Reduce disjoint intervals to one interval containing the origin.

    Negative-side intervals are reflected for bookkeeping, each half-line's
    intervals are gathered into one interval from the origin holding their
    mass, and the two are merged across the origin (saving exactly
    2*rho(0) = 2a of perimeter).  Total mass is conserved and the perimeter
    never increases.
    """
    if not ivs:
        raise ValueError("need at least one interval")
    if len(ivs) == 1 and ivs[0].lo <= 0.0 <= ivs[0].hi:
        return ivs[0]  # already a single interval containing the origin
    ordered = sorted(ivs, key=lambda iv: iv.lo)
    for prev, cur in zip(ordered, ordered[1:]):
        if prev.hi > cur.lo:
            raise ValueError(f"intervals overlap: [{prev.lo}, {prev.hi}] and [{cur.lo}, {cur.hi}]")

    pos: list[tuple[float, float]] = []
    neg: list[tuple[float, float]] = []  # reflected onto the positive axis
    for iv in ordered:
        if iv.width == 0.0:
            continue
        if iv.lo >= 0.0:
            pos.append((iv.lo, iv.hi))
        elif iv.hi <= 0.0:
            neg.append((-iv.hi, -iv.lo))
        else:  # straddles the origin: split at 0
            neg.append((0.0, -iv.lo))
            pos.append((0.0, iv.hi))

    return Interval(-_half_line_end(dens, neg), _half_line_end(dens, pos))


# ---------------------------------------------------------------------------
# Contours of perimeter and mass over the endpoint plane.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourGrid:
    """Perimeter and mass sampled on a rectangular (|alpha|, beta) grid.

    perimeter[i, j] and mass[i, j] correspond to (alpha_abs[i], beta[j]);
    records are row-major over i then j.
    """

    alpha_abs: np.ndarray
    beta: np.ndarray
    perimeter: np.ndarray
    mass: np.ndarray


def contour_grid(dens: Density, alpha_max: float, beta_max: float, n: int) -> ContourGrid:
    """Sample perimeter and mass on an n x n grid over [0, alpha_max] x [0, beta_max]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if alpha_max <= 0.0 or beta_max <= 0.0:
        raise ValueError("grid extents must be positive")
    p, a = dens.p, dens.a
    s = np.linspace(0.0, alpha_max, n)
    b = np.linspace(0.0, beta_max, n)
    S, B = np.meshgrid(s, b, indexing="ij")
    per = S ** p + B ** p + 2.0 * a
    mass = (S ** (p + 1.0) + B ** (p + 1.0)) / (p + 1.0) + a * (S + B)
    return ContourGrid(s, b, per, mass)


def contour_curvatures(dens: Density, alpha_abs: float, beta: float) -> tuple[float, float]:
    """Second derivatives d^2(beta)/d|alpha|^2 along the two contour families.

    First component: along the constant-perimeter contour through the
    point; second: along the constant-mass contour.  For 0 < p < 1 the
    perimeter contour is convex (positive) and the mass contour concave
    (negative); the signs flip with p - 1.
    """
    if alpha_abs <= 0.0 or beta <= 0.0:
        raise ValueError("need alpha_abs > 0 and beta > 0")
    p, a = dens.p, dens.a
    dd_per = -(p - 1.0) / beta ** (p - 1.0) * (
        alpha_abs ** (p - 2.0) + alpha_abs ** (2.0 * p - 2.0) / beta ** p)
    rb = beta ** p + a
    ra = alpha_abs ** p + a
    dd_mass = -(p * alpha_abs ** (p - 1.0) * rb * rb + p * beta ** (p - 1.0) * ra * ra) / rb ** 3
    return dd_per, dd_mass
