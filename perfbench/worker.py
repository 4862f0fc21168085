"""Runs one workload in a fresh process and prints its figures as JSON.

Started by run.py, never directly.  It imports isodense from the
checkout's src/ (and refuses any other copy), draws the inputs from the
seed, makes one untimed warm-up call and prints READY; run.py's clock
from process start to that line is the set-up time.  It then times the
canary, repeats the workload's operations in passes until the time
budget is spent, checks every output, and prints one JSON line.

During untraced passes a timer signal runs a short canary slice every
25 ms; its time is taken out of the operations' times, and run.py
rescales each pass by the median slice to a reference machine speed
(NOTES.md).  With
--trace 1 the passes alternate untraced and traced, so the tracing
overhead is the difference of their median wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


# Wall-clock period of the canary sampler (seconds).
SAMPLE_PERIOD = 0.025


def _make_canary(np):
    """A fixed mix of the program's kinds of work, none of it isodense code.

    Python float function calls and small-array numpy calls, about 1 ms
    together.  Its time follows the speed of the shared machine, which
    drifts by tens of percent over seconds to minutes, while the program
    under test does not touch it.
    """
    small_x, small_y = np.linspace(0.1, 1.0, 256), np.linspace(1.0, 2.0, 256)

    def f(x):
        return x ** 2.5 / 3.5 + 0.3 * x

    def canary() -> float:
        t0 = time.perf_counter()
        s = 0.0
        for i in range(2_000):
            s += f(1.0 + i * 1e-4)
        for _ in range(20):
            np.sum(np.hypot(small_x, np.roll(small_y, 1)) ** 2.5)
        return time.perf_counter() - t0
    return canary


def _canary_median(canary, n: int = 25) -> float:
    return statistics.median(canary() for _ in range(n))


class Sampler:
    """Times one canary slice every SAMPLE_PERIOD seconds while it is on.

    The slices run from a SIGALRM handler between the program's bytecodes,
    so they sample the machine's speed evenly over long operations too.
    `spent` is the time the slices took; it is taken out of the
    operations' wall times.
    """

    def __init__(self, canary):
        self.canary = canary
        self.samples, self.spent, self.on = [], 0.0, False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.on:
            t0 = time.perf_counter()
            self.samples.append(self.canary())
            self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = []
        self.on = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.on = False


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


class OpError:
    """An operation that raised; the traceback is its recorded output."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"OpError({self.text!r})"


def run_pass(ops, outdir: str, tracer=None, sampler=None) -> dict:
    """One pass over the operations, sampled by the canary unless traced."""
    os.makedirs(outdir)
    outputs, times = [], []
    root = tracer.open("bench.pass") if tracer else None
    if sampler:
        sampler.start()
    for k, op in enumerate(ops):
        if tracer:
            tracer.op = k
            span = tracer.open("bench.op")
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            out = op.run(outdir)
        except Exception:  # a failing operation is recorded; the run goes on
            out = OpError(traceback.format_exc(limit=3))
        t1 = time.perf_counter()
        times.append(t1 - t0 - ((sampler.spent - spent) if sampler else 0.0))
        if tracer:
            tracer.close(span)
        outputs.append(out)
    if sampler:
        sampler.stop()
    if tracer:
        tracer.close(root)
    return {"outputs": outputs, "times": times, "wall": sum(times), "tracer": tracer,
            "root_span": root, "dir": outdir,
            "canary": statistics.median(sampler.samples) if sampler else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "isodense")):
        sys.stderr.write(f"perfbench: no isodense sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import isodense
    if os.path.dirname(os.path.dirname(os.path.abspath(isodense.__file__))) != SRC:
        sys.stderr.write(f"perfbench: imported isodense from {isodense.__file__}\n")
        return 2
    import workloads

    wl = workloads.build(args.workload, args.seed)
    canary = _make_canary(np)
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        wl.warmup(tmp)
        print("READY", flush=True)
        canary_before = _canary_median(canary)
        if args.setup_only:
            print(f"CANARY {canary_before!r}", flush=True)
            return 0
        result = _measure(args, wl, tmp, Sampler(canary), canary_before)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def _measure(args, wl, tmp: str, sampler, canary_before: float) -> dict:
    import numpy as np
    import tracing
    import workloads

    passes = []
    t_begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = inst = None
        if traced:
            tracer = tracing.Tracer()
            inst = tracing.Instrumentation(tracer)
            inst.install()
        try:
            rec = run_pass(wl.ops, os.path.join(tmp, f"pass{len(passes)}"), tracer,
                           None if traced else sampler)
        finally:
            if inst:
                inst.remove()
        fp = [workloads.digest(out) for out in rec["outputs"]]
        rec["digests"] = [d for d, _ in fp]
        rec["bytes_out"] = sum(n for _, n in fp)
        if passes:  # pass 0's files are kept for the checks
            shutil.rmtree(rec["dir"], ignore_errors=True)
        passes.append(rec)
        elapsed = time.perf_counter() - t_begin
        if args.trace and len(passes) < 2:
            continue
        if elapsed + rec["wall"] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    canary_after = _canary_median(sampler.canary)

    # checks: pass 0 in full, later passes by identical output
    failures, errors, residuals = [], [], []
    verdicts = []
    for op, out in zip(wl.ops, passes[0]["outputs"]):
        c = workloads.Check()
        if isinstance(out, OpError):
            c.need(False, "raised: " + out.text.strip().splitlines()[-1])
        else:
            try:
                op.check(out, c)
            except Exception as exc:  # an unreadable output fails its operation
                c.need(False, f"check raised {type(exc).__name__}: {exc}")
        errors += c.errors
        residuals += c.residuals
        verdicts.append(c.reasons)
    failed = 0
    for k, rec in enumerate(passes):
        for i, op in enumerate(wl.ops):
            reasons = list(verdicts[i])
            out = rec["outputs"][i]
            if k and isinstance(out, OpError):
                reasons.append("raised: " + out.text.strip().splitlines()[-1])
            elif rec["digests"][i] != passes[0]["digests"][i]:
                reasons.append("output differs from the first pass")
            if reasons:
                failed += 1
                if len(failures) < 20:
                    failures.append({"pass": k, "op": op.label, "reasons": reasons})
    attempted = len(passes) * len(wl.ops)

    untraced = [r for r in passes if r["tracer"] is None]
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pass_walls": [r["wall"] for r in untraced],
        "pass_canaries": [r["canary"] for r in untraced],
        "err_digits": workloads.digits(errors),
        "mass_digits": workloads.digits(residuals),
        "peak_rss_mb": peak_rss_mb,
        "ops": [{"op": op.label,
                 "median_s": statistics.median(r["times"][i] for r in untraced),
                 "max_s": max(r["times"][i] for r in untraced),
                 "n": len(untraced)} for i, op in enumerate(wl.ops)],
        "env": {"commit": _commit(), "python": platform.python_version(),
                "numpy": np.__version__, "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "canary_before_s": canary_before, "canary_after_s": canary_after},
    }
    if args.trace:
        out["layers"] = _layers(args, passes)
    return out


def _layers(args, passes) -> dict:
    import tracing
    from isodense.evolver import EvolveReport

    traced = [r for r in passes if r["tracer"] is not None]
    untraced = [r for r in passes if r["tracer"] is None]
    by_wall = sorted(traced, key=lambda r: r["wall"])
    rec = by_wall[(len(by_wall) - 1) // 2]
    tracer = rec["tracer"]
    m = tracing.layer_metrics(tracer, rec["root_span"])
    reports = [o for o in rec["outputs"] if isinstance(o, EvolveReport)]
    iters = sum(r.iterations for r in reports)
    m["evolver.iterations"] = iters
    m["evolver.ms_per_iter"] = 1000.0 * m["evolver.busy_s"] / iters if iters else 0.0
    m["evolver.converged_frac"] = (sum(r.converged for r in reports) / len(reports)
                                   if reports else 0.0)
    m["cli.bytes_out"] = rec["bytes_out"]
    # the untraced passes in raw seconds, and the canary that rescales them
    m["bench.wall_raw_s"] = statistics.median(r["wall"] for r in untraced)
    m["bench.canary_s"] = statistics.median(r["canary"] for r in untraced)
    m["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                             - statistics.median(r["wall"] for r in untraced))
    stable = all(dict(r["tracer"].counts) == dict(tracer.counts)
                 and r["tracer"].names == tracer.names for r in traced)
    m["trace.counts_repeat"] = 1.0 if stable else 0.0
    spans_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(spans_dir, exist_ok=True)
    tracer.dump(os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    return m


if __name__ == "__main__":
    sys.exit(main())
