"""Self-test of the benchmark's counters.

    python3 perfbench/selftest.py

1. Baselines: traces single reference calls in-process and compares the
   exact counts with the ones recorded in NOTES.md.
2. Determinism: runs `run.py --trace 1` twice per workload of
   BENCHMARK.json with the default seed and requires every count metric
   to repeat exactly.

Exits nonzero if any comparison fails.  Not collected by pytest: it takes
a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1  # the default seed (NOTES.md)
sys.path.insert(0, os.path.join(ROOT, "src"))

from isodense import evolver, interval1d  # noqa: E402
from isodense.density import Density  # noqa: E402

import tracing  # noqa: E402

# (case, call, expected exact counts); see NOTES.md for where each figure comes from
BASELINES = (
    ("solve_general p=4 a=0.3 M=1",
     lambda: interval1d.solve_general(Density(4.0, 0.3), 1.0),
     {"density.primitive_calls": 3758, "numerics.bisect_calls": 67}),
    ("evolve_2d p=2 a=0.2 n=256",
     lambda: evolver.evolve_2d(Density(2.0, 0.2), 1.0, n=256),
     {"evolver.iterations": 101, "evolver.mass_grad_calls": 5909,
      "evolver.projections": 3621, "evolver.linesearches": 303}),
    ("evolve_2d p=4 a=0.1 n=256",
     lambda: evolver.evolve_2d(Density(4.0, 0.1), 1.0, n=256),
     {"evolver.iterations": 201, "evolver.mass_grad_calls": 17248,
      "evolver.projections": 10508, "evolver.linesearches": 603}),
    ("evolve_3d_axisym p=2 a=0.1 n=129",
     lambda: evolver.evolve_3d_axisym(Density(2.0, 0.1), 1.0, n=129),
     {"evolver.iterations": 115, "evolver.mass_grad_calls": 8918}),
)

# count metrics that must repeat exactly between runs with the same seed
COUNT_SUFFIXES = ("_calls", ".calls", ".runs", ".iterations", ".grid_points",
                  ".projections", ".linesearches", ".star_checks", ".resamples",
                  ".bytes_out", "_per_solve", "_per_linesearch", "_ratio", "_frac")


def _traced(call) -> dict:
    """Per-layer figures for one call, traced in this process."""
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    inst.install()
    try:
        root = tracer.open("bench.pass")
        out = call()
        tracer.close(root)
    finally:
        inst.remove()
    m = tracing.layer_metrics(tracer, root)
    m["evolver.iterations"] = getattr(out, "iterations", 0)
    return m


def check_baselines() -> list:
    problems = []
    for label, call, expected in BASELINES:
        m = _traced(call)
        for key, want in expected.items():
            got = m[key]
            state = "ok" if got == want else "DIFFERS"
            print(f"baseline {label}: {key} = {got:g} (recorded {want}) {state}")
            if got != want:
                problems.append(f"{label}: {key} = {got:g}, recorded {want}")
    return problems


def _traced_run(workload: str, seed: int) -> dict:
    # one second: the run still makes one untraced and one traced pass
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run reported failures")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_determinism() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    problems = []
    for wl in workloads:
        first, second = (_traced_run(wl, SEED) for _ in range(2))
        counts = sorted(k for k in first if k.endswith(COUNT_SUFFIXES))
        differ = [k for k in counts if first[k] != second.get(k)]
        print(f"determinism {wl}: {len(counts)} count metrics, "
              f"{len(differ)} differ" + (f": {differ}" if differ else ""))
        problems += [f"{wl}: {k} = {first[k]} then {second.get(k)}" for k in differ]
    return problems


def main() -> int:
    problems = check_baselines() + check_determinism()
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
