"""Command-line front end: solve, sweep, contour, evolve, acrit, verify.

Single solutions are printed as JSON; sweeps, contour grids and curve
snapshots are written as CSV with a fixed column order and 12 significant
digits, so identical inputs produce byte-identical output.  Exit codes:
0 success, 1 usage error, 2 numeric failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from .density import (
    Density,
    Dimension,
    check_mass,
    critical_mass,
    critical_offset,
    radial_mass_inverse,
)
from .evolver import evolve_2d, evolve_3d_axisym, isoperimetric_quotient
from .interval1d import (
    ContourGrid,
    Interval,
    IntervalSolution,
    brute_force_oracle,
    contour_grid,
    mass1d,
    perimeter1d,
    reduce_intervals,
    solve_general,
    solve_general_batch,
    solve_p2,
    solve_p_lt_1_batch,
)
from .numerics import NumericError
from .radial import (
    offcenter_p2_2d,
    offcenter_p2_3d,
    offcenter_quadrature_2d,
    offcenter_quadrature_3d,
    solve_2d_p2,
    solve_3d_p2,
    symmetric_ball_batch,
)
from .spectral import spectral_2d, spectral_3d_axisym

__all__ = ["main"]

# Converged spectral optima at p = 4, a = 0.1, M = 1 (node counts 17-65 in 2D
# and 12-32 in 3D agree to 1e-12); the polygon evolver sits below both.
SPECTRAL_P4_REFERENCES = {2: 5.012386458629, 3: 6.54363266353}


# Rows formatted and written at a time: the CSV text held in memory is one block.
CSV_BLOCK_ROWS = 4096


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # + 0.0 prints -0.0 as 0


def _emit_json(record: dict) -> None:
    """Print a flat record as JSON: floats to 12 significant digits, non-finite as null."""
    rounded = {k: float(_fmt(v)) if math.isfinite(v) else None
               for k, v in record.items() if isinstance(v, float)}
    print(json.dumps({**record, **rounded}, sort_keys=True))


def _write_bytes(path: Optional[str], chunks) -> None:
    """Write each bytes chunk to path (stdout if None) as it is made."""
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk.decode())
    else:
        with open(path, "wb") as fh:
            fh.writelines(chunks)


def _fmt_each(template: bytes, *columns: list) -> list[bytes]:
    """template % (c0[k], c1[k], ...) for each k, from one %-operation for all k."""
    width, k = len(columns), len(columns[0])
    values = [None] * (width * k)
    for j, col in enumerate(columns):
        values[j::width] = col
    return ((template + b"\0") * k % tuple(values)).split(b"\0")[:-1]


def _write_csv(path: Optional[str], header: list[str], columns: list) -> None:
    """Write equal-length columns as CSV rows to path (stdout if None).

    A float ndarray column prints as %.12g, with -0.0 as 0, as _fmt does;
    any other column (a sequence of str or int, or an int or object
    ndarray) prints each value's str.  Each block of CSV_BLOCK_ROWS rows
    is formatted by _fmt_each and written as it is formatted.
    """
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    template = b",".join(b"%.12g" if f else b"%b" for f in floats) + b"\n"

    def blocks():
        yield ",".join(header).encode() + b"\n"
        for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = [(c[lo:lo + CSV_BLOCK_ROWS] + 0.0).tolist() if f
                     else [str(v).encode() for v in c[lo:lo + CSV_BLOCK_ROWS]]
                     for c, f in zip(columns, floats)]
            yield b"".join(_fmt_each(template, *block))

    _write_bytes(path, blocks())


def _write_contour(path: Optional[str], grid: ContourGrid, flags: np.ndarray) -> None:
    """Write a contour grid and its n x n 0/1 flags as CSV rows to path (stdout if None).

    The grid is square, so its perimeter and mass are symmetric to the bit;
    with symmetric flags the "perimeter,mass,flag" text of row i, column j
    is that of row j, column i.  Each is formatted once, as bytes, in the
    row of the smaller index, and held until the other row is written:
    n(n+1) float conversions for n**2 rows, at most about n**2/4 texts
    held.  Floats print as %.12g with -0.0 as 0, as _fmt does.  Each row is
    formatted from one template holding the n node texts, and written as
    it is formatted.
    """
    n, perimeter, mass = len(grid.nodes), grid.perimeter, grid.mass
    texts = _fmt_each(b"%.12g", (grid.nodes + 0.0).tolist())
    template = b"".join(b"\0," + t + b",%b\n" for t in texts)  # \0: the row's own node
    held = [[] for _ in range(n)]  # held[i]: the texts of row i left of its diagonal

    def rows():
        yield b"alpha_abs,beta,perimeter,mass,on_constraint\n"
        for i in range(n):
            cells = _fmt_each(b"%.12g,%.12g,%d", (perimeter[i, i:] + 0.0).tolist(),
                              (mass[i, i:] + 0.0).tolist(), flags[i, i:].tolist())
            row, held[i] = held[i], None
            row += cells
            for later, cell in zip(held[i + 1:], cells[1:]):
                later.append(cell)
            yield template.replace(b"\0", texts[i]) % tuple(row)

    _write_bytes(path, rows())


def positive_float(text: str) -> float:
    """argparse type of every --mass: NaN, infinities and values <= 0 are usage errors."""
    value = float(text)
    try:
        check_mass(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _dispatch(dim: int, p: float, avals, mass: float, force_numeric: bool = False) -> list:
    """One solution per offset; the numerical solvers take all offsets in one call."""
    if dim > 1:
        if force_numeric:
            raise ValueError("--force-numeric applies to --dim 1 only; use the evolve command")
        if p == 2.0:
            return [(solve_2d_p2 if dim == 2 else solve_3d_p2)(a, mass) for a in avals]
        return symmetric_ball_batch(p, Dimension(dim), avals, mass)
    if force_numeric or (p > 1.0 and p != 2.0):
        return solve_general_batch(p, avals, mass)
    if p == 2.0:
        return [solve_p2(a, mass) for a in avals]
    return solve_p_lt_1_batch(p, avals, mass)


def _solution_record(dim: int, p: float, a: float, mass: float, sol) -> dict:
    rec = {"dim": dim, "p": p, "a": a, "mass": mass, "branch": sol.branch.value,
           "perimeter": sol.perimeter,
           "lagrange_multiplier": sol.lagrange_multiplier}
    if isinstance(sol, IntervalSolution):
        rec.update(alpha=sol.alpha, beta=sol.beta)
    else:
        rec.update(R=sol.radius, r0=sol.center_offset)
    rec["mass_residual"] = sol.mass - mass
    return rec


def _check_finite(avals, fields: dict) -> None:
    """NumericError naming the first offset at which a field to be printed is not finite.

    fields maps each name to its values, one per offset; called before
    anything is written, so a failure leaves no partial output.
    """
    bad = ~np.isfinite(np.array(list(fields.values()), dtype=float))
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        names = ", ".join(k for k, row in zip(fields, bad) if row[i])
        raise NumericError(f"offset a={avals[i]!r}: {names} not finite")


def _cmd_solve(args) -> int:
    Density(args.p, args.a)  # validates p > 0, a >= 0
    sol = _dispatch(args.dim, args.p, [args.a], args.mass, args.force_numeric)[0]
    record = _solution_record(args.dim, args.p, args.a, args.mass, sol)
    _check_finite([args.a], {k: [v] for k, v in record.items() if isinstance(v, float)})
    if args.dim > 1 and args.p <= 1.0:
        # (log rho)'' < 0 at every radius: the centred ball is never optimal
        record["note"] = "for p <= 1 the centred ball is never optimal; use the evolve command"
    elif args.dim > 1 and args.p != 2.0:
        a_crit = critical_offset(args.p, Dimension(args.dim), args.mass)
        if args.a < a_crit:
            record["note"] = ("centred branch only: below the critical offset "
                              "the optimum may be off-centre; use the evolve command")
    _emit_json(record)
    return 0


def _cmd_sweep(args) -> int:
    Density(args.p, 0.0)
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    for flag, value in (("--a-min", args.a_min), ("--a-max", args.a_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.a_min > args.a_max or args.a_min < 0.0:
        raise ValueError("need 0 <= a-min <= a-max")
    with np.errstate(over="ignore"):  # near the float range the last node overflows, then is a-max
        avals = np.linspace(args.a_min, args.a_max, args.steps).tolist()
    sols = _dispatch(args.dim, args.p, avals, args.mass)
    end_cols = ["alpha", "beta"] if args.dim == 1 else ["R", "r0"]
    header = ["a", "branch", *end_cols, "perimeter", "mass_residual"]
    records = [_solution_record(args.dim, args.p, a, args.mass, s) for a, s in zip(avals, sols)]
    columns = [[rec[k] for rec in records] if k == "branch"
               else np.array([rec[k] for rec in records], dtype=float) for k in header]
    _check_finite(avals, {k: c for k, c in zip(header, columns) if k != "branch"})
    _write_csv(args.out, header, columns)
    return 0


def _cmd_contour(args) -> int:
    dens = Density(args.p, args.a)
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    # extent: a little past the widest one-ended interval of the target mass
    extent = 1.05 * float(radial_mass_inverse(dens.p, dens.a, args.mass))
    if not extent > 0.0:  # the endpoint underflowed
        raise NumericError(f"contour grid: extent {extent!r} at mass {args.mass!r} "
                           "is not positive")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, before any output
        grid = contour_grid(dens, extent, args.grid)
    # a column is finite if its min and max are (either is NaN if a value is):
    # the check builds no n x n mask
    bad = [name for name, col in (("alpha_abs, beta", grid.nodes),
                                  ("perimeter", grid.perimeter), ("mass", grid.mass))
           if not (math.isfinite(col.min()) and math.isfinite(col.max()))]
    if bad:
        raise NumericError(f"contour grid: {', '.join(bad)} not finite")
    # flag grid nodes within half a cell of the target-mass level set
    dm_i = np.max(np.abs(np.diff(grid.mass, axis=0)))
    dm_j = np.max(np.abs(np.diff(grid.mass, axis=1)))
    band = 0.5 * max(dm_i, dm_j)
    _write_contour(args.out, grid, (np.abs(grid.mass - args.mass) < band).astype(np.int8))
    return 0


def _cmd_evolve(args) -> int:
    dens = Density(args.p, args.a)
    evolve = evolve_2d if args.dim == 2 else evolve_3d_axisym  # argparse allows 2 and 3 only
    # past the float range a kernel's inf or NaN fails the run's own checks; no warnings
    with np.errstate(all="ignore"):
        report = evolve(dens, args.mass, n=args.vertices, max_iters=args.iters, tol=args.tol)
    rec = {
        "dim": args.dim, "p": args.p, "a": args.a, "mass": args.mass,
        "weighted_perimeter": report.weighted_perimeter,
        "weighted_mass": report.weighted_mass,
        "unweighted_perimeter": report.unweighted_perimeter,
        "unweighted_area": report.unweighted_area,
        "iterations": report.iterations,
        "converged": report.converged,
        "curvature_spread": report.curvature_spread,
        "radius_estimate": report.radius_estimate,
        "center_offset_estimate": report.center_offset_estimate,
        "isoperimetric_quotient": (isoperimetric_quotient(report)
                                   if args.dim == 2 else None),
    }
    if args.out is not None:  # first, so a path that fails prints no record
        V = report.final_curve.vertices
        _write_csv(args.out, ["vertex_index", "x", "y"], [range(len(V)), V[:, 0], V[:, 1]])
    _emit_json(rec)
    return 0


def _cmd_acrit(args) -> int:
    Density(args.p, 0.0)
    rec = {"p": args.p, "dim": args.dim}
    if args.mass is not None:
        rec["mass"] = args.mass
        rec["a_crit"] = critical_offset(args.p, Dimension(args.dim), args.mass)
    if args.a is not None:
        rec["a"] = args.a
        rec["critical_mass"] = critical_mass(Density(args.p, args.a), Dimension(args.dim))
    if args.mass is None and args.a is None:
        raise ValueError("provide --mass (for a_crit) and/or --a (for critical mass)")
    bad = [k for k, v in rec.items() if not math.isfinite(v)]
    if bad:
        raise NumericError(f"{', '.join(bad)} not finite")
    _emit_json(rec)
    return 0


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------

def _check(name: str, margin: float, ok: bool, failures: list) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"  [{state}] {name} (margin {margin:.3e})")
    if not ok:
        failures.append(name)


def _verify_oracle1d(failures: list) -> None:
    for p in (0.5, 1.0, 1.5, 2.0, 4.0):
        for a in (0.05, 0.3, 1.0):
            for mass in (0.5, 2.0):
                dens = Density(p, a)
                sol = solve_general(dens, mass)
                ref = brute_force_oracle(dens, mass, 4000)
                rel = abs(sol.perimeter - ref.perimeter) / ref.perimeter
                _check(f"oracle1d p={p} a={a} M={mass}", rel, rel <= 1e-4, failures)
    # the numerical minimizer against the p = 2 closed form, on both sides of a_crit
    for a in (0.0, 0.05, 0.3, 1.0):
        for mass in (0.5, 2.0):
            sol, ref = solve_general(Density(2.0, a), mass), solve_p2(a, mass)
            rel = abs(sol.perimeter - ref.perimeter) / ref.perimeter
            _check(f"closed form p=2 a={a} M={mass}", rel, rel <= 1e-14, failures)
            s_sym = float(radial_mass_inverse(2.0, a, 0.5 * mass))
            err = max(abs(sol.alpha - ref.alpha), abs(sol.beta - ref.beta)) / s_sym
            _check(f"endpoints p=2 a={a} M={mass}", err, err <= 1e-12, failures)


def _verify_branch_continuity(failures: list) -> None:
    for mass in (0.5, 1.0, 2.0):
        a_crit = (3.0 * mass) ** (2.0 / 3.0) / 4.0
        p_asym = (3.0 * mass) ** (2.0 / 3.0)
        p_sym = solve_p2(a_crit * (1.0 + 1e-15), mass).perimeter
        rel = abs(p_asym - p_sym) / p_asym
        _check(f"branch continuity p=2 M={mass}", rel, rel <= 1e-9, failures)


def _verify_reduction(failures: list) -> None:
    rng = np.random.default_rng(42)
    worst_mass = 0.0
    worst_per = -math.inf
    for _ in range(200):
        p = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        a = float(rng.uniform(0.05, 2.0))
        dens = Density(p, a)
        edges = np.sort(rng.uniform(-3.0, 3.0, size=2 * int(rng.integers(1, 5))))
        ivs = [Interval(float(edges[2 * i]), float(edges[2 * i + 1]))
               for i in range(len(edges) // 2)]
        total_mass = sum(mass1d(dens, iv) for iv in ivs)
        total_per = sum(perimeter1d(dens, iv) for iv in ivs)
        out = reduce_intervals(dens, ivs)
        worst_mass = max(worst_mass, abs(mass1d(dens, out) - total_mass) / total_mass)
        worst_per = max(worst_per, (perimeter1d(dens, out) - total_per) / total_per)
    _check("reduction mass conservation", worst_mass, worst_mass <= 1e-10, failures)
    _check("reduction perimeter monotone", worst_per, worst_per <= 1e-12, failures)


def _verify_radial_quadrature(failures: list) -> None:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        R = float(rng.uniform(0.3, 1.5))
        r0 = float(rng.uniform(0.0, 0.9 * R))
        a = float(rng.uniform(0.0, 1.5))
        dens = Density(2.0, a)
        per, mass = offcenter_p2_2d(R, r0, a)
        per_q, mass_q = offcenter_quadrature_2d(dens, R, r0)
        worst = max(worst, abs(per - per_q) / per, abs(mass - mass_q) / mass)
        area, mass3 = offcenter_p2_3d(R, r0, a)
        area_q, mass3_q = offcenter_quadrature_3d(dens, R, r0)
        worst = max(worst, abs(area - area_q) / area, abs(mass3 - mass3_q) / mass3)
    _check("off-centre closed forms vs quadrature", worst, worst <= 1e-13, failures)


def _verify_evolver_p2(failures: list) -> None:
    a = 0.2
    report = evolve_2d(Density(2.0, a), 1.0, n=256, max_iters=2000, tol=1e-10)
    ref = solve_2d_p2(a, 1.0)
    rel = abs(report.weighted_perimeter - ref.perimeter) / ref.perimeter
    _check("evolver-p2 perimeter vs closed form", rel, rel <= 1e-2, failures)
    q = isoperimetric_quotient(report)
    _check("evolver-p2 circularity", abs(q - 1.0), abs(q - 1.0) <= 2e-3, failures)


def _verify_spectral(failures: list) -> None:
    # a = 1 is on the centred branch in 2D and 3D; an uncertified solve fails
    for d, spectral, closed in ((2, spectral_2d, solve_2d_p2),
                                (3, spectral_3d_axisym, solve_3d_p2)):
        worst = 0.0
        for a in (0.0, 0.1, 0.2, 1.0):
            opt = spectral(Density(2.0, a), 1.0)
            ref = closed(a, 1.0).perimeter
            worst = max(worst, abs(opt.perimeter - ref) / ref if opt.certified else math.inf)
        _check(f"spectral {d}D p=2 vs closed form", worst, worst <= 1e-12, failures)
    for d, spectral, counts in ((2, spectral_2d, (17, 25, 33)),
                                (3, spectral_3d_axisym, (16, 24, 32))):
        ref = SPECTRAL_P4_REFERENCES[d]
        worst = 0.0
        for nodes in counts:
            opt = spectral(Density(4.0, 0.1), 1.0, nodes=nodes)
            worst = max(worst, abs(opt.perimeter - ref) / ref if opt.certified else math.inf)
        _check(f"spectral {d}D p=4 a=0.1 reference at {counts} nodes", worst, worst <= 1e-10,
               failures)


_VERIFIERS = {"oracle1d": _verify_oracle1d, "branch-continuity": _verify_branch_continuity,
              "reduction": _verify_reduction, "radial-quadrature": _verify_radial_quadrature,
              "evolver-p2": _verify_evolver_p2, "spectral": _verify_spectral}
VERIFY_SUITES = tuple(_VERIFIERS)


def _cmd_verify(args) -> int:
    failures: list = []
    suite = args.suite
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {VERIFY_SUITES}")
    print(f"suite {suite}:")
    _VERIFIERS[suite](failures)
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 2
    print("all checks passed")
    return 0


@functools.cache  # built on first use, once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="isodense",
                     description="Weighted isoperimetric solvers for the density r^p + a")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one (dim, p, a, mass) problem")
    solve.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    solve.add_argument("--p", type=float, required=True)
    solve.add_argument("--a", type=float, required=True)
    solve.add_argument("--mass", type=positive_float, default=1.0)
    solve.add_argument("--force-numeric", action="store_true",
                       help="use the numerical 1D minimizer regardless of p")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="sweep the offset a and write a CSV")
    sweep.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    sweep.add_argument("--p", type=float, required=True)
    sweep.add_argument("--mass", type=positive_float, default=1.0)
    sweep.add_argument("--a-min", type=float, required=True)
    sweep.add_argument("--a-max", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--out", type=str, default=None)
    sweep.set_defaults(func=_cmd_sweep)

    contour = sub.add_parser("contour", help="perimeter/mass grid over the endpoints")
    contour.add_argument("--p", type=float, required=True)
    contour.add_argument("--a", type=float, required=True)
    contour.add_argument("--mass", type=positive_float, default=1.0)
    contour.add_argument("--grid", type=int, default=101)
    contour.add_argument("--out", type=str, default=None)
    contour.set_defaults(func=_cmd_contour)

    evolve = sub.add_parser("evolve", help="run the constrained curve evolver")
    evolve.add_argument("--dim", type=int, choices=(2, 3), required=True)
    evolve.add_argument("--p", type=float, required=True)
    evolve.add_argument("--a", type=float, required=True)
    evolve.add_argument("--mass", type=positive_float, default=1.0)
    evolve.add_argument("--vertices", type=int, default=256)
    evolve.add_argument("--iters", type=int, default=4000)
    evolve.add_argument("--tol", type=float, default=1e-9)
    evolve.add_argument("--out", type=str, default=None,
                        help="write the final curve vertices to this CSV path")
    evolve.set_defaults(func=_cmd_evolve)

    acrit = sub.add_parser("acrit", help="critical offset / critical mass")
    acrit.add_argument("--p", type=float, required=True)
    acrit.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    acrit.add_argument("--mass", type=positive_float, default=None)
    acrit.add_argument("--a", type=float, default=None)
    acrit.set_defaults(func=_cmd_acrit)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", type=str)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage failure
        code = exc.code if isinstance(exc.code, int) else 1
        return code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # e.g. a sweep with too many --steps to hold
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
