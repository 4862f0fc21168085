"""Isoperimetric intervals on the real line under the density |x|**p + a.

For 0 < p <= 1 the optimum has one end at the origin (p = 1/2 is also
checked against its cubic closed form).  For p = 2 the translation rule
gives it: under x**2 + a, moving an interval by c has the effect of
raising the offset to a + c**2, so the optimum is a symmetric interval
moved off the origin.  A constrained numerical minimizer covers every
other exponent: a section search brackets the left endpoint, and Newton's
method on the first-order condition for the endpoints resolves it.  An
exhaustive grid oracle cross-checks them all.
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

# Section search: nodes per bracket, and passes; each keeps at most two of its
# cells, so three leave a bracket of (2/32)**3 = 2**-12 * s_sym.  Then at most
# _ROOT_ITERS Newton steps on the endpoint condition: bisection alone narrows
# that bracket to an ulp of s_sym in 41.
_SECTIONS = 32
_SECTION_ITERS = 3
_ROOT_ITERS = 64
# ties within rounding: the scaled objective s**p + beta**p carries about (p+1) ulps of
# noise, so the relative tolerance is the larger of this floor and 4*(p+1)*eps
_TIE_RTOL = 1e-14
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
    the right-endpoint stationarity condition.
    """

    alpha: float
    beta: float
    perimeter: float
    mass: float
    branch: IntervalBranch
    lagrange_multiplier: float

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
        m = 1.5 * M0  # past the float range for M0 above about 1.2e308: one factor at a time
        return m ** (2.0 / 3.0) if m < math.inf else 1.5 ** (2.0 / 3.0) * M0 ** (2.0 / 3.0)
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
        raise NumericError(f"endpoints [{-s + 0.0}, {beta}] are not a valid interval")
    try:
        perimeter = s ** dens.p + beta ** dens.p + 2.0 * dens.a
    except OverflowError:
        raise NumericError(f"perimeter of [{-s + 0.0}, {beta}] is past the float range") from None
    try:
        mass = dens.primitive(s) + dens.primitive(beta)
    except OverflowError:  # an endpoint's power past the float range
        mass = math.inf
    resid = abs(mass - M0) / M0
    if not resid <= MASS_RTOL:
        raise NumericError(f"relative mass residual {resid:.3e} exceeds {MASS_RTOL}")
    return IntervalSolution(-s, beta, perimeter, mass, branch, _multiplier(dens, beta))


def solve_general_batch(p: float, a_values, M0: float) -> list[IntervalSolution]:
    """Numerical minimum-perimeter intervals for any p > 0, one per offset.

    With s = |alpha|, the mass constraint gives beta(s) by the Newton
    primitive inverse, and s**p + beta**p is minimized over s in [0, s_sym]
    (s_sym the symmetric half-width).  Three passes of a 32-point section
    search, each keeping the two cells around the best node, bracket the
    minimizer to 2**-12 * s_sym.  Inside the bracket a safeguarded Newton
    iteration solves the first-order condition h(s) = h(beta), with
    h(r) = r**(p-1) / rho(r), written as log h(s) - log h(beta) = 0 in log s:
    next to the origin, where the minimizer sits for p close to 1, that is
    nearly linear.  Its sign is the sign of the perimeter's slope in s, so
    each step narrows the bracket (a bracket end where the sign puts the root
    outside, as where the objective is flat to rounding, first moves to 0 or
    s_sym); a step that leaves the bracket, or is not a number, bisects it
    instead.  A row freezes once its step stops moving, where the condition
    is not a number (a power past the float range), or where Newton puts the
    root below the float range; at a = 0 no step is taken.  Each row
    keeps its best point, a later one winning ties within rounding, so the
    endpoints are resolved to rounding and no row ends above its section
    node.  Every Newton inverse of a row after the first pass starts
    at that row's beta at its bracket's left end: beta falls as s rises, so
    it lies above each root in the bracket.  The exact s = 0 and symmetric
    candidates are always probed as well; a row is at the origin only where
    the s = 0 candidate wins, however small the s that beat it.  Offsets go
    in blocks of _BLOCK; no row's result depends on the others.
    """
    check_mass(M0)
    a = np.asarray(a_values, dtype=float).reshape(-1)
    if a.size > _BLOCK:
        return [sol for k in range(0, a.size, _BLOCK)
                for sol in solve_general_batch(p, a[k:k + _BLOCK], M0)]
    dens = [Density(p, ak) for ak in a.tolist()]  # validates p and every offset
    s_sym = radial_mass_inverse(p, a, 0.5 * M0)
    tie = 1.0 + max(_TIE_RTOL, 4.0 * (p + 1.0) * np.finfo(float).eps)

    def beta_at(t, a, s_sym, upper=None):
        # beta at s = t * s_sym, from the mass constraint
        s = t * s_sym
        return radial_mass_inverse(p, a, M0 - (s ** (p + 1.0) / (p + 1.0) + a * s), upper=upper)

    def scaled(t, beta, s_sym):
        # (s**p + beta**p) / s_sym**p, without the 2a that would swamp it
        return t ** p + (beta / s_sym) ** p

    def condition(t, beta, s_sym, a):
        # log h(s) - log h(beta) and its derivative in log s, from d(log h)/d(log r) =
        # p - 1 - p * r**p / rho(r) and d(log beta)/d(log s) = -s*rho(s) / (beta*rho(beta))
        s = t * s_sym
        s_p, beta_p = s ** p, beta ** p
        rho_s, rho_beta = s_p + a, beta_p + a
        f = (p - 1.0) * np.log(s / beta) - np.log(rho_s / rho_beta)
        return f, (p - 1.0 - p * s_p / rho_s
                   + (p - 1.0 - p * beta_p / rho_beta) * (s * rho_s) / (beta * rho_beta))

    rows = np.arange(a.size)
    lo, hi, beta_lo = np.zeros(a.size), np.ones(a.size), None
    # near the top of the float range s_sym or beta overflow; _solution refuses the row
    with np.errstate(all="ignore"):
        for n in range(_SECTION_ITERS):
            t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, _SECTIONS + 1)
            betas = beta_at(t, a[:, None], s_sym[:, None], beta_lo)
            per = scaled(t, betas, s_sym[:, None])
            if n == 0:  # the exact s = 0 and symmetric candidates
                ends_per, ends_beta = per[:, [0, -1]], betas[:, [0, -1]]
            i = np.argmin(per, axis=1)
            left, right = np.maximum(i - 1, 0), np.minimum(i + 1, _SECTIONS)
            lo, hi = t[rows, left], t[rows, right]
            beta_lo = betas[rows, left][:, None]
        # where the objective is flat to rounding the best node's cells can miss the root:
        # a bracket end whose finite condition puts the root outside moves to 0 or 1
        f_lo = condition(lo, beta_lo[:, 0], s_sym, a)[0]
        f_hi = condition(hi, betas[rows, right], s_sym, a)[0]
        out_lo, out_hi = (f_lo > 0.0) & np.isfinite(f_lo), (f_hi < 0.0) & np.isfinite(f_hi)
        lo, beta_lo = np.where(out_lo, 0.0, lo), np.where(out_lo, ends_beta[:, 0], beta_lo[:, 0])
        hi = np.where(out_hi, 1.0, hi)
        t, beta = t[rows, i], betas[rows, i]
        t_best, per_best, beta_best = t.copy(), per[rows, i], beta.copy()
        live = a > 0.0  # at a = 0, h(r) = 1/r: the perimeter rises on [0, s_sym) and s = 0 wins
        for _ in range(_ROOT_ITERS):
            f, df = condition(t, beta, s_sym, a)
            falling, rising = f < 0.0, f > 0.0
            lo, beta_lo = np.where(live & falling, t, lo), np.where(live & falling, beta, beta_lo)
            hi = np.where(live & rising, t, hi)
            newton = t * np.exp(-f / df)
            step = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
            # a row stops at a root, where the condition is NaN, once neither step moves it, or
            # where Newton's root underflows (below the float range, s = 0 is the minimizer)
            live &= (falling | rising) & (newton != t) & (newton != 0.0) & (step != t)
            if not live.any():
                break
            t = np.where(live, step, t)
            k = np.flatnonzero(live)
            beta[k] = beta_at(t[k], a[k], s_sym[k], beta_lo[k])
            per_k = scaled(t[k], beta[k], s_sym[k])
            won = per_k <= per_best[k] * tie
            k = k[won]
            t_best[k], per_best[k], beta_best[k] = t[k], per_k[won], beta[k]
        # the exact s = 0, then symmetric, candidates win ties within rounding (flat near a_crit)
        cand = np.column_stack([np.zeros(a.size), np.ones(a.size), t_best])
        per = np.column_stack([ends_per, per_best])
        betas = np.column_stack([ends_beta, beta_best])
        pick = np.argmax(per <= per.min(axis=1, keepdims=True) * tie, axis=1)
        s_best, beta = (cand[rows, pick] * s_sym).tolist(), betas[rows, pick].tolist()
    out = []
    for k, d in enumerate(dens):
        s, b = s_best[k], beta[k]
        branch = _classify(s, b)
        if branch is IntervalBranch.SYMMETRIC:
            s = b = float(s_sym[k])
        elif branch is IntervalBranch.AT_ORIGIN and s > 0.0:  # a positive s beat s = 0
            branch = IntervalBranch.ASYMMETRIC
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
    """Perimeter and mass sampled on a square (|alpha|, beta) grid.

    perimeter[i, j] and mass[i, j] correspond to (nodes[i], nodes[j]), so
    both are symmetric to the bit; records are row-major over i then j.
    """

    nodes: np.ndarray
    perimeter: np.ndarray
    mass: np.ndarray


def contour_grid(dens: Density, extent: float, n: int) -> ContourGrid:
    """Sample perimeter and mass on an n x n grid over [0, extent]**2.

    Each value is a sum of one term per axis, so the powers are taken once
    per node.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if extent <= 0.0:
        raise ValueError("grid extents must be positive")
    p, a = dens.p, dens.a
    s = np.linspace(0.0, extent, n)
    sp, sp1 = s ** p, s ** (p + 1.0)
    per = np.add.outer(sp, sp) + 2.0 * a
    head = np.add.outer(sp1, sp1) / (p + 1.0)
    if head.max() == math.inf:  # the sum (or a power) overflowed; there, divide first
        term = s * (sp / (p + 1.0))
        head = np.where(head == math.inf, np.add.outer(term, term), head)
    mass = head + a * np.add.outer(s, s)
    return ContourGrid(s, per, mass)


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
