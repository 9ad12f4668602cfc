"""One workload run in one fresh process: set up, time the ops, check them.

``run.py`` starts this script with the BLAS and OpenMP thread counts pinned
to 1 and ``src`` on ``PYTHONPATH``; it prints one JSON object as its last
line of standard output. Ops run one at a time in a closed loop (one caller,
the next op starts when the previous one returns).

With ``--trace 1`` every op runs twice, untraced and traced, so that the
per-layer numbers come with the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import tracer as tracing
import workloads

#: Every end-to-end run holds at least this many ops, so that the slowest
#: tenth holds at least ten samples.
MIN_OPS = 100

#: Tracebacks printed per run; later errors are only counted.
MAX_REPORTED_ERRORS = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

KERNELS = ("gowers_sum", "dual_field_sum", "dual_pair_field_sum")
SUITE_CHECKS = tuple(workloads.suite.CHECKS)


def setup(workload, seed, tiny):
    """Generate the inputs and warm up one op per kind."""
    ops, extra = workloads.WORKLOADS[workload](seed, tiny)
    for op in workloads.warmup_ops(ops):
        op.call()
    return ops, extra


def _timed_call(op):
    t0 = time.perf_counter()
    try:
        result, err = op.call(), None
    except Exception as exc:  # a failing op is counted, never dropped
        result, err = None, exc
    return time.perf_counter() - t0, (op, result, err)


def run_ops(ops, seconds=0.0, cycle=1, min_ops=0, count=None, tracer=None):
    """Run ops back to back; return latencies, outcomes, wall time and the
    traced latencies.

    Runs exactly ``count`` ops if given. Otherwise runs whole cycles of
    ``cycle`` ops, at least ``min_ops`` ops, and a further cycle only while
    it is expected to end within ``seconds``: every run then has exactly the
    workload's mix, whatever the program's speed.

    With a ``tracer``, each op runs twice, untraced and traced, in
    alternating order, so that the tracing overhead is measured op by op
    under the same machine conditions.
    """
    latencies, traced, outcomes = [], [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % cycle == 0 and i >= min_ops and i > 0:
            elapsed = time.perf_counter() - t_start
            if elapsed * (i // cycle + 1) / (i // cycle) > seconds:
                break
        op = ops[i % len(ops)]
        if tracer is None:
            dt, outcome = _timed_call(op)
            outcomes.append(outcome)
        else:
            tracer.op_id = i
            for on in (False, True) if i % 2 == 0 else (True, False):
                if on:
                    tracer.install()
                    dt_traced, outcome = _timed_call(op)
                    tracer.uninstall()
                    traced.append(dt_traced)
                else:
                    dt, outcome = _timed_call(op)
                outcomes.append(outcome)
        latencies.append(dt)
        i += 1
    return latencies, outcomes, time.perf_counter() - t_start, traced


class _Checker:
    def __init__(self):
        self.memo = workloads.Memo()
        self.errors = 0

    def status(self, op, result, err):
        if err is None:
            try:
                return op.check(result, self.memo)
            except Exception as exc:
                err = exc
        self.errors += 1
        if self.errors <= MAX_REPORTED_ERRORS:
            print(f"perfbench: op {op.kind} raised:", file=sys.stderr)
            traceback.print_exception(err, file=sys.stderr)
        return "error"


def check_all(outcomes, extra):
    """Status of every timed op, then of the untimed extra ops."""
    checker = _Checker()
    for op, result, err in outcomes:
        if err is None and op.publish is not None:
            checker.memo.put(op.publish, result)
    statuses = [checker.status(op, result, err) for op, result, err in outcomes]
    for op in extra:
        try:
            result, err = op.call(), None
        except Exception as exc:
            result, err = None, exc
        statuses.append(checker.status(op, result, err))
    return statuses


def verdict(statuses):
    failed = sum(s != workloads.OK for s in statuses)
    return {
        "correct": not any(s in (workloads.WRONG, "error") for s in statuses),
        "attempted": len(statuses),
        "failed": failed,
    }


def end_to_end(latencies, wall_s, statuses):
    ms = sorted(1e3 * t for t in latencies)
    # the tail as the mean of the slowest tenth, not the 90th percentile: in
    # verify-d1 the percentile sits on a gap between cost classes and jumps
    tail = ms[-max(1, len(ms) // 10):]
    ok = sum(s == workloads.OK for s in statuses)
    values = {
        "ops_per_s": len(latencies) / wall_s,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": sum(tail) / len(tail),
        "ok_frac": ok / len(statuses),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, overhead_frac):
    """The per-layer metrics of one traced phase, as ``name -> (value, unit)``."""
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "amount": 0.0, "calls_by_parent": {}}

    def s(name):
        return summary.get(name, empty)

    m = {}
    for k in KERNELS:
        st = s(f"kernels.{k}")
        m[f"kernels.{k}.calls"] = (st["calls"], "count")
        m[f"kernels.{k}.self_s"] = (st["self_s"], "s")
        m[f"kernels.{k}.visits"] = (st["amount"], "count")
        m[f"kernels.{k}.ns_per_visit"] = (1e9 * _ratio(st["self_s"], st["amount"]), "ns")
    rec = s("norms.gowers_norm_rec")
    m["norms.gowers_norm_rec.calls"] = (rec["calls"], "count")
    m["norms.gowers_norm_rec.self_s"] = (rec["self_s"], "s")
    m["norms.gowers_norm_rec.work"] = (rec["amount"], "count")
    spec = s("norms.gowers_norm_spectral_u2")
    m["norms.gowers_norm_spectral_u2.calls"] = (spec["calls"], "count")
    m["norms.gowers_norm_spectral_u2.self_s"] = (spec["self_s"], "s")
    m["norms.gowers_norm_brute.self_s"] = (s("norms.gowers_norm_brute")["self_s"], "s")
    m["dual.dual_brute.self_s"] = (s("dual.dual_brute")["self_s"], "s")
    drec = s("dual.dual_rec")
    m["dual.dual_rec.calls"] = (drec["calls"], "count")
    m["dual.dual_rec.self_s"] = (drec["self_s"], "s")
    m["dual.dual_rec.work"] = (drec["amount"], "count")
    ffts = [st for name, st in summary.items() if name.startswith("fft.")]
    fft_calls = sum(st["calls"] for st in ffts)
    fft_elements = sum(st["amount"] for st in ffts)
    m["fft.calls"] = (fft_calls, "count")
    m["fft.elements"] = (fft_elements, "count")
    m["fft.elements_per_call"] = (_ratio(fft_elements, fft_calls), "count")
    m["fft.self_s"] = (sum(st["self_s"] for st in ffts), "s")
    for fn in ("decompose", "dual_norm_lower"):
        st = s(f"antiuniform.{fn}")
        m[f"antiuniform.{fn}.calls"] = (st["calls"], "count")
        m[f"antiuniform.{fn}.self_s"] = (st["self_s"], "s")
    iterations = sum(st["amount"] for name, st in summary.items() if name.startswith("antiuniform."))

    def from_antiuniform(name):
        return sum(n for p, n in s(name)["calls_by_parent"].items() if p.startswith("antiuniform."))

    norm_calls = from_antiuniform("norms.gowers_norm_rec")
    m["antiuniform.iterations"] = (iterations, "count")
    m["antiuniform.norm_calls_per_iter"] = (_ratio(norm_calls, iterations), "ratio")
    m["antiuniform.dual_calls_per_iter"] = (_ratio(from_antiuniform("dual.dual_rec"), iterations), "ratio")
    m["antiuniform.accept_ratio"] = (_ratio(iterations, norm_calls), "ratio")
    for fn in ("lp_norm", "inner"):
        st = s(f"grid.{fn}")
        m[f"grid.{fn}.calls"] = (st["calls"], "count")
        m[f"grid.{fn}.self_s"] = (st["self_s"], "s")
    for check in SUITE_CHECKS:
        m[f"suite.{check}.busy_s"] = (s(f"suite.{check}")["incl_s"], "s")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    # the checkout may not be a git repository; read .git directly if it is
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def stamp():
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "commit": _git_commit(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t-spawn", type=int, required=True, help="monotonic ns at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true", help="small sizes, for self-tests")
    args = p.parse_args(argv)

    ops, extra = setup(args.workload, args.seed, args.tiny)
    setup_s = (time.monotonic_ns() - args.t_spawn) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cycle = 1 if args.workload in workloads.ANY_PREFIX else len(ops) // workloads.POOL
    tr = tracing.Tracer() if args.trace else None
    latencies, outcomes, wall_s, traced = run_ops(ops, args.seconds, cycle, MIN_OPS, tracer=tr)
    statuses = check_all(outcomes, extra)
    out = {"stamp": stamp(), "setup_s": setup_s, "ops": len(latencies)}
    if args.trace:
        metrics = layer_metrics(tr.summary(), sum(traced) / sum(latencies) - 1.0)
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        out["spans"] = len(tr.start)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        tr.write(
            os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.npz"),
            {"workload": args.workload, "seed": args.seed, **out["stamp"]},
        )
    else:
        out["metrics"] = end_to_end(latencies, wall_s, statuses)
    out.update(verdict(statuses))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
