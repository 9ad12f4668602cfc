"""Run one benchmark workload of ghk and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload verify-d1 --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones, and
the spans are written to ``perfbench/out/``. Lines before it, starting with
``#``, describe the run.

The program is run from source (``./src`` on ``PYTHONPATH``) in fresh child
processes with the BLAS and OpenMP thread counts pinned to 1. Set-up time is
the median over ``SETUP_REPEATS`` fresh processes, the measuring one included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify-d1", "ascent", "ascent-fp-bound", "routes")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
#: The whole run, child processes included, ends within this many seconds.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _child(env, args, deadline, setup_only=False):
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t-spawn", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="Run one ghk benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="small sizes, for self-tests")
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ghk", "__init__.py")):
        print("perfbench: ./src/ghk not found; run from the repository root", file=sys.stderr)
        return 2
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.update({var: "1" for var in THREAD_VARS})

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            _child(env, args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        out = _child(env, args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if not args.trace:
        setups.append(out["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics = {name: metrics[name] for name in sorted(metrics)}
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} env={json.dumps(out['stamp'])}")
    failed_frac = out["failed"] / out["attempted"]
    print(
        f"# timed ops={out['ops']} (p50 over {out['ops']} samples, tail over the slowest {out['ops'] // 10}); "
        f"attempted={out['attempted']} failed={out['failed']} failed_frac={failed_frac:.6f}"
        + (f"; spans={out['spans']}" if args.trace else f"; setup_s samples={setups}")
    )
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
