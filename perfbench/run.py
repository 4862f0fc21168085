"""isodense benchmark: one workload, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: sweep, grid, evolve2d, evolve3d (see perfbench/NOTES.md).
Each run starts worker.py in fresh single-threaded processes: with
--trace 0, four that only set up plus the measuring one, so setup_s is a
median of five; with --trace 1, the measuring one alone.  Human-readable
lines come first; the last line of standard output is the JSON object
{"correct", "attempted", "failed", "metrics"}.  Any error exits nonzero
without printing that line.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
TIMEOUT_S = 170.0
# Typical canary time on the shared 2-core x86_64 VM the benchmark was built on.
# wall_s and setup_s are seconds at this canary speed (reference seconds, unit
# ref_s; setup_s keeps the unit s that the benchmark format fixes for it).
# The raw seconds are printed on the human-readable lines.
CANARY_REF_S = 0.00075


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ISODENSE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _read(proc, deadline: float, stop_at_ready: bool) -> bytes:
    """Read the worker's stdout until READY (or end of file), within the deadline."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            raise BenchError("worker timed out")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return buf
        buf += chunk
        if stop_at_ready and b"READY\n" in buf:
            return buf


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start one worker; return its set-up seconds and its result.

    A set-up-only worker's result holds just the canary it timed after READY.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_env())
    try:
        head = _read(proc, deadline, stop_at_ready=True)
        setup = time.perf_counter() - t0
        if b"READY\n" not in head:
            raise BenchError(f"worker exited during set-up (code {proc.wait()})")
        tail = _read(proc, deadline, stop_at_ready=False)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    lines = (head + tail).decode().split("READY\n", 1)[1].strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    if setup_only:
        return setup, {"canary": float(lines[-1].removeprefix("CANARY "))}
    return setup, json.loads(lines[-1])


def _spec() -> dict:
    """Workload and metric names with units, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _metrics(declared: list, values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    try:
        spec = _spec()
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: cannot read BENCHMARK.json: {exc}\n")
        return 1
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = [] if args.trace else [_worker(args, deadline, True)
                                        for _ in range(SETUPS - 1)]
        setup, res = _worker(args, deadline, False)
        setups.append((setup, {"canary": res["env"]["canary_before_s"]}))
        attempted, failed = res["attempted"], res["failed"]
        # each time rescaled by the canary timed next to it (see NOTES.md)
        setup_ref = [s * CANARY_REF_S / r["canary"] for s, r in setups]
        pass_ref = [w * CANARY_REF_S / c
                    for w, c in zip(res["pass_walls"], res["pass_canaries"])]
        if args.trace:
            values = res["layers"]
        else:
            values = {"setup_s": statistics.median(setup_ref),
                      "wall_s": statistics.median(pass_ref),
                      "ok_frac": 1.0 - failed / attempted, "err_digits": res["err_digits"],
                      "mass_digits": res["mass_digits"], "peak_rss_mb": res["peak_rss_mb"]}
        metrics = _metrics(spec["per_layer" if args.trace else "end_to_end"], values)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: {exc!r}\n")
        return 1

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for op in res["ops"]:
        print(f"op {op['op']}: median {op['median_s']:.4f} s, max {op['max_s']:.4f} s, "
              f"n={op['n']}")
    for f in res["failures"]:
        print(f"FAILED pass {f['pass']} {f['op']}: {'; '.join(f['reasons'])}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} operations)")
    if not args.trace:
        print(f"wall_s is the median of {len(pass_ref)} passes in reference seconds: "
              + ", ".join(f"{w:.4f}" for w in pass_ref))
        print("  raw pass walls (s): " + ", ".join(f"{w:.4f}" for w in res["pass_walls"]))
        print(f"setup_s is the median of {len(setup_ref)} set-ups in reference seconds: "
              + ", ".join(f"{s:.4f}" for s in setup_ref))
        print("  raw set-ups (s): " + ", ".join(f"{s:.4f}" for s, _ in setups))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
