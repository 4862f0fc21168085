"""The four benchmark workloads: inputs drawn from a seed, operations, checks.

Each operation is one call a user of isodense would make: an in-process
`isodense.cli.main` invocation writing a CSV or printing JSON, or one
call into the public API.  Package functions are looked up on their
module at call time, so the traced run's wrappers see every call.

Every output is checked after the timed phase: the exit code, the mass
constraint recomputed from the printed endpoints or the final curve, the
paper's closed form where one exists, and a one-sided bound where none
does.  The relative errors and residuals found on the way give
err_digits and mass_digits.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from isodense import cli, evolver, interval1d, radial
from isodense.density import Density, Dimension

import refs

# Relative slack for values printed with 12 significant digits.
PRINTED = 1e-10
# Oracle resolution used when checking sweep rows; it only has to be feasible.
CHECK_GRID = 1000


@dataclass
class Check:
    """Verdict on one operation: failure reasons plus measured errors."""

    reasons: list = field(default_factory=list)
    errors: list = field(default_factory=list)     # relative, against a closed form
    residuals: list = field(default_factory=list)  # relative mass residuals

    def need(self, ok: bool, reason: str) -> bool:
        if not ok and len(self.reasons) < 5:
            self.reasons.append(reason)
        return ok


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    path: str | None


@dataclass
class Op:
    label: str
    run: Callable[[str], object]  # receives the pass's output directory
    check: Callable[[object, Check], None]


@dataclass
class Workload:
    ops: list
    warmup: Callable[[str], None]


def digest(out) -> tuple[str, int]:
    """Fingerprint of an operation's output, and the bytes the CLI wrote."""
    h = hashlib.sha256()
    if isinstance(out, CliResult):
        nbytes = len(out.stdout.encode())
        h.update(f"{out.code}\0{out.stdout}\0{out.stderr}\0".encode())
        if out.path is not None and os.path.exists(out.path):
            with open(out.path, "rb") as fh:
                data = fh.read()
            nbytes += len(data)
            h.update(data)
        return h.hexdigest(), nbytes
    if isinstance(out, evolver.EvolveReport):
        h.update(out.final_curve.vertices.tobytes())
        h.update(repr((out.weighted_perimeter, out.weighted_mass, out.iterations,
                       out.converged)).encode())
        return h.hexdigest(), 0
    h.update(repr(out).encode())
    return h.hexdigest(), 0


def _cli_op(label: str, argv: list, out_name: str | None, check) -> Op:
    def run(outdir: str) -> CliResult:
        path = None if out_name is None else os.path.join(outdir, out_name)
        so, se = io.StringIO(), io.StringIO()
        with redirect_stdout(so), redirect_stderr(se):
            code = cli.main(argv + ([] if path is None else ["--out", path]))
        return CliResult(code, so.getvalue(), se.getvalue(), path)

    def checked(out: CliResult, c: Check) -> None:
        if c.need(out.code == 0, f"exit code {out.code}: {out.stderr.strip()[:200]}"):
            check(out, c)
    return Op(label, run, checked)


def _num(x: float) -> str:
    return repr(float(x))


def _read_csv(path: str, header: str) -> list:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# ---------------------------------------------------------------------------
# sweep: the scalar 1D path through the CLI
# ---------------------------------------------------------------------------

SWEEP_STEPS = 300
SOLVES_PER_P = 8


def _check_sweep_1d(p: float, mass: float, avals: np.ndarray, oracle: bool):
    def check(out: CliResult, c: Check) -> None:
        rows = _read_csv(out.path, "a,branch,alpha,beta,perimeter,mass_residual")
        if not c.need(len(rows) == len(avals), f"{len(rows)} rows, expected {len(avals)}"):
            return
        for a, row in zip(avals, rows):
            a = float(a)
            alpha, beta, per = float(row[2]), float(row[3]), float(row[4])
            where = f"p={p} a={a:.6g}"
            c.need(abs(float(row[0]) - a) <= PRINTED * max(1.0, a), f"{where}: a column")
            if not c.need(alpha <= 0.0 < beta, f"{where}: endpoints {alpha}, {beta}"):
                continue
            c.need(_rel(abs(alpha) ** p + beta ** p + 2.0 * a, per) <= PRINTED,
                   f"{where}: perimeter column disagrees with the endpoints")
            resid = _rel(refs.mass_1d(p, a, alpha, beta), mass)
            c.residuals.append(resid)
            c.need(resid <= 1e-9, f"{where}: mass residual {resid:.2e}")
            if p == 0.5:
                c.need(alpha == 0.0, f"{where}: p < 1 optimum must end at the origin")
                err = _rel(per, refs.perimeter_1d_p_half(a, mass))
                c.errors.append(err)
                c.need(err <= 1e-9, f"{where}: closed-form error {err:.2e}")
            if oracle:
                bound = interval1d.brute_force_oracle(Density(p, a), mass, CHECK_GRID).perimeter
                c.need(per <= bound * (1.0 + PRINTED),
                       f"{where}: perimeter {per} above the grid oracle's {bound}")
    return check


def _check_sweep_ball(d: int, p: float, mass: float, avals: np.ndarray):
    def check(out: CliResult, c: Check) -> None:
        rows = _read_csv(out.path, "a,branch,R,r0,perimeter,mass_residual")
        if not c.need(len(rows) == len(avals), f"{len(rows)} rows, expected {len(avals)}"):
            return
        for a, row in zip(avals, rows):
            a = float(a)
            where = f"d={d} p={p} a={a:.6g}"
            R, r0, per = float(row[2]), float(row[3]), float(row[4])
            c.need(row[1] == "centred" and r0 == 0.0, f"{where}: not a centred ball")
            per_cf, mass_cf = refs.centred_ball(d, p, a, R)
            c.need(_rel(per, per_cf) <= PRINTED, f"{where}: perimeter disagrees with R")
            resid = _rel(mass_cf, mass)
            c.residuals.append(resid)
            c.need(resid <= 1e-9, f"{where}: mass residual {resid:.2e}")
    return check


def _check_solve_1d(p: float, a: float, mass: float, reference):
    def check(out: CliResult, c: Check) -> None:
        rec = json.loads(out.stdout)
        alpha, beta, per = rec["alpha"], rec["beta"], rec["perimeter"]
        where = f"solve p={p} a={a:.6g}"
        if not c.need(alpha <= 0.0 < beta, f"{where}: endpoints {alpha}, {beta}"):
            return
        resid = _rel(refs.mass_1d(p, a, alpha, beta), mass)
        c.residuals.append(resid)
        c.need(resid <= 1e-9, f"{where}: mass residual {resid:.2e}")
        err = _rel(per, reference(a, mass))
        c.errors.append(err)
        c.need(err <= 1e-9, f"{where}: closed-form error {err:.2e}")
    return check


def _sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    mass = rng.uniform(0.5, 2.0)
    a_min = rng.uniform(0.0, 0.1)
    a_max = a_min + rng.uniform(0.9, 1.1) * mass ** 0.8  # straddles every a_crit
    avals = np.linspace(a_min, a_max, SWEEP_STEPS)
    common = ["--mass", _num(mass), "--a-min", _num(a_min), "--a-max", _num(a_max),
              "--steps", str(SWEEP_STEPS)]
    ops = []
    for d, p in ((1, 4.0), (1, 1.5), (1, 0.5), (2, 4.0), (3, 1.5)):
        argv = ["sweep", "--dim", str(d), "--p", _num(p)] + common
        check = (_check_sweep_1d(p, mass, avals, oracle=True) if d == 1
                 else _check_sweep_ball(d, p, mass, avals))
        ops.append(_cli_op(f"sweep d={d} p={p}", argv, f"sweep_d{d}_p{p}.csv", check))
    for p, reference in ((1.0, refs.perimeter_1d_p1), (2.0, refs.perimeter_1d_p2)):
        for _ in range(SOLVES_PER_P):
            a = rng.uniform(0.0, a_max)
            argv = ["solve", "--dim", "1", "--p", _num(p), "--a", _num(a),
                    "--mass", _num(mass), "--force-numeric"]
            ops.append(_cli_op(f"solve --force-numeric p={p} a={a:.4f}", argv, None,
                               _check_solve_1d(p, a, mass, reference)))

    def warmup(outdir: str) -> None:
        with redirect_stdout(io.StringIO()):
            cli.main(["sweep", "--dim", "1", "--p", "4", "--a-min", "0", "--a-max", "1",
                      "--steps", "3", "--out", os.path.join(outdir, "warmup.csv")])
            cli.main(["solve", "--dim", "1", "--p", "2", "--a", "0.1", "--force-numeric"])
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# grid: the bulk-array 1D path (grid oracle and contour CSV)
# ---------------------------------------------------------------------------

ORACLE_GRID = 100_000
ORACLES = 8  # the worst grid error of 8 draws varies little from seed to seed
CONTOUR_GRID = 400


def _oracle_op(p: float, a: float, mass: float) -> Op:
    def run(outdir: str):
        return interval1d.brute_force_oracle(Density(p, a), mass, ORACLE_GRID)

    def check(sol, c: Check) -> None:
        where = f"oracle p={p:.4f} a={a:.4f} M={mass:.4f}"
        resid = _rel(refs.mass_1d(p, a, sol.alpha, sol.beta), mass)
        c.residuals.append(resid)
        c.need(resid <= 1e-9, f"{where}: mass residual {resid:.2e}")
        best = interval1d.solve_general(Density(p, a), mass).perimeter
        err = _rel(sol.perimeter, best)
        c.errors.append(err)
        # a feasible grid point can never beat the optimum, and lies within
        # the grid's resolution of it
        c.need(sol.perimeter >= best * (1.0 - 1e-12),
               f"{where}: grid {sol.perimeter} beats solve_general {best}")
        c.need(err <= 1e-6, f"{where}: grid error {err:.2e}")
    return Op(f"brute_force_oracle p={p:.3f} a={a:.3f} M={mass:.3f}", run, check)


def _check_contour(p: float, a: float, mass: float, n: int):
    def check(out: CliResult, c: Check) -> None:
        with open(out.path) as fh:
            header = fh.readline().strip()
        if not c.need(header == "alpha_abs,beta,perimeter,mass,on_constraint",
                      f"unexpected header {header!r}"):
            return
        data = np.loadtxt(out.path, delimiter=",", skiprows=1, ndmin=2)
        if not c.need(data.shape == (n * n, 5), f"contour shape {data.shape}"):
            return
        extent = 1.05 * refs.invert_primitive(p, a, mass)
        g = np.linspace(0.0, extent, n)
        S, B = np.repeat(g, n), np.tile(g, n)
        c.need(np.max(np.abs(data[:, 0] - S)) <= PRINTED * extent
               and np.max(np.abs(data[:, 1] - B)) <= PRINTED * extent,
               "contour nodes are not the expected grid")
        per = S ** p + B ** p + 2.0 * a
        m = (S ** (p + 1.0) + B ** (p + 1.0)) / (p + 1.0) + a * (S + B)
        c.need(np.max(np.abs(data[:, 2] - per) / per) <= PRINTED, "perimeter column")
        c.need(np.max(np.abs(data[:, 3] - m) / np.maximum(m, mass)) <= PRINTED,
               "mass column")
        grid_m = data[:, 3].reshape(n, n)
        band = 0.5 * max(np.max(np.abs(np.diff(grid_m, axis=0))),
                         np.max(np.abs(np.diff(grid_m, axis=1))))
        dist = np.abs(data[:, 3] - mass)
        flag = data[:, 4]
        c.need(bool(np.all((flag == 0) | (flag == 1))), "on_constraint is not 0/1")
        c.need(bool(np.all(dist[flag == 1] <= band * (1.0 + 1e-6))),
               "node flagged off the constraint band")
        c.need(bool(np.all(flag[dist < band * (1.0 - 1e-6)] == 1)),
               "node inside the constraint band not flagged")
        c.need(int(flag.sum()) > 0, "no node on the constraint")
    return check


def _grid(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for _ in range(ORACLES):
        # Below a_crit (0.28 or more here) the optimum is asymmetric and
        # interior, so the grid error is measured, not recomputed away.  The
        # narrow band keeps the curvature at the optimum alike across draws,
        # so the worst error depends only on where the grid nodes fall.
        ops.append(_oracle_op(rng.uniform(3.5, 4.5), rng.uniform(0.05, 0.25),
                              rng.uniform(0.8, 1.25)))
    for p in (0.5, 4.0):
        a, mass = rng.uniform(0.1, 0.6), rng.uniform(0.5, 2.0)
        argv = ["contour", "--p", _num(p), "--a", _num(a), "--mass", _num(mass),
                "--grid", str(CONTOUR_GRID)]
        ops.append(_cli_op(f"contour p={p} a={a:.3f} M={mass:.3f}", argv,
                           f"contour_p{p}.csv", _check_contour(p, a, mass, CONTOUR_GRID)))

    def warmup(outdir: str) -> None:
        interval1d.brute_force_oracle(Density(2.5, 0.3), 1.0, 1000)
        cli.main(["contour", "--p", "4", "--a", "0.3", "--grid", "5",
                  "--out", os.path.join(outdir, "warmup.csv")])
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# evolve2d / evolve3d: the constrained curve evolver
# ---------------------------------------------------------------------------

# The evolver's mass projection stops at this relative residual; what it
# leaves below that varies by chance from one input to the next.
EVOLVER_MASS_TOL = 1e-10
# The reported perimeter must be the curve's, up to summation order.
REPORT_AGREES = 1e-12


def _evolve_op(dim: int, p: float, a: float, n: int) -> Op:
    mass = 1.0
    dens = Density(p, a)

    def run(outdir: str):
        if dim == 2:
            return evolver.evolve_2d(dens, mass, n=n)
        return evolver.evolve_3d_axisym(dens, mass, n=n)

    def check(rep, c: Check) -> None:
        where = f"evolve d={dim} p={p} a={a:.4f} n={n}"
        # mass and perimeter are recomputed from the returned curve, not
        # taken from the report
        if dim == 2:
            recomputed = evolver.weighted_mass_2d(dens, rep.final_curve)
            per = evolver.weighted_perimeter_2d(dens, rep.final_curve)
        else:
            profile = rep.final_curve.vertices[:n]
            recomputed = refs.revolved_mass(p, a, profile)
            per = refs.revolved_area(p, a, profile)
        resid = _rel(recomputed, mass)
        c.residuals.append(max(resid, EVOLVER_MASS_TOL))
        c.need(resid <= 1e-8, f"{where}: mass residual {resid:.2e}")
        c.need(_rel(rep.weighted_perimeter, per) <= REPORT_AGREES,
               f"{where}: reported perimeter {rep.weighted_perimeter} is not the "
               f"curve's {per}")
        if p == 2.0:
            ref = refs.perimeter_2d_p2(a, mass) if dim == 2 else refs.perimeter_3d_p2(a, mass)
            err = _rel(per, ref)
            c.errors.append(err)
            c.need(err <= 1e-5, f"{where}: closed-form error {err:.2e}")
        else:
            # the paper's non-circularity claim: the optimum beats the centred ball
            ball = radial.symmetric_ball(dens, Dimension(dim), mass).perimeter
            c.need(per < ball * (1.0 - 1e-3),
                   f"{where}: perimeter {per} does not beat the centred ball's {ball}")
    return Op(f"evolve d={dim} p={p} a={a:.4f} n={n}", run, check)


def _evolve2d(seed: int) -> Workload:
    # below a_crit = 0.46 at M = 1.  At n = 1024 the iteration count moves
    # with a (287 at a = 0.15, 224 at 0.25), so that case keeps a fixed.
    a = random.Random(seed).uniform(0.2, 0.26)
    ops = [_evolve_op(2, 2.0, a, 256), _evolve_op(2, 4.0, 0.1, 256),
           _evolve_op(2, 2.0, 0.2, 1024)]

    def warmup(outdir: str) -> None:
        evolver.evolve_2d(Density(2.0, 0.2), 1.0, n=64, max_iters=2)
    return Workload(ops, warmup)


def _evolve3d(seed: int) -> Workload:
    # below a_crit = 0.27 at M = 1; the closed-form error and the iteration
    # count move with a (6.1 digits at a = 0.05, 7.1 at 0.2), hence the narrow range
    a = random.Random(seed).uniform(0.095, 0.105)
    ops = [_evolve_op(3, 2.0, a, 129), _evolve_op(3, 4.0, 0.1, 129)]

    def warmup(outdir: str) -> None:
        evolver.evolve_3d_axisym(Density(2.0, 0.1), 1.0, n=17, max_iters=2)
    return Workload(ops, warmup)


def build(name: str, seed: int) -> Workload:
    return {"sweep": _sweep, "grid": _grid, "evolve2d": _evolve2d,
            "evolve3d": _evolve3d}[name](seed)


def digits(values: list) -> float:
    """-log10 of the worst relative error, capped at 16."""
    worst = max(values, default=0.0)
    return 16.0 if worst <= 1e-16 else min(16.0, -math.log10(worst))
