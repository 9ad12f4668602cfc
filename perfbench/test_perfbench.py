"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ghk  # noqa: E402
import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= child.MIN_OPS
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_wrong_reference_raises_failed_frac(monkeypatch):
    ops, extra = workloads.oracle_nd(seed=3, tiny=True)
    cycle = ops[: len(ops) // workloads.POOL]
    latencies, outcomes, wall, _ = child.run_ops(cycle, count=len(cycle))
    statuses = child.check_all(outcomes, extra)
    assert child.verdict(statuses)["failed"] == 0
    assert child.end_to_end(latencies, wall, statuses)["ok_frac"]["value"] == 1.0

    rec = ghk.gowers_norm_rec
    monkeypatch.setattr(ghk, "gowers_norm_rec", lambda f, k: 1.01 * rec(f, k))
    statuses = child.check_all(outcomes, extra)
    n_norm_ops = sum(op.kind[0] == "gowers_norm_brute" for op in cycle)
    assert n_norm_ops > 0
    assert child.verdict(statuses)["failed"] == n_norm_ops
    assert child.verdict(statuses)["correct"] is False
    assert child.end_to_end(latencies, wall, statuses)["ok_frac"]["value"] < 1.0


def _traced_counts(workload, seed, count):
    ops, _ = workloads.WORKLOADS[workload](seed, tiny=True)
    tr = tracing.Tracer()
    child.run_ops(ops, count=count, tracer=tr)
    metrics = child.layer_metrics(tr.summary(), 0.0)
    counted = (".calls", ".visits", ".work", ".elements", ".iterations")
    return {name: v for name, (v, _) in metrics.items() if name.endswith(counted)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(workload):
    first = _traced_counts(workload, seed=11, count=40)
    second = _traced_counts(workload, seed=11, count=40)
    assert first == second
    assert sum(first.values()) > 0


def test_tracer_restores_every_binding():
    before = (ghk.suite.dual_rec, ghk.antiuniform.gowers_norm_rec, ghk.kernels.gowers_sum)
    import numpy.fft

    fft_before = numpy.fft.rfftn
    with tracing.Tracer():
        assert ghk.suite.dual_rec is not before[0]
        assert ghk.antiuniform.gowers_norm_rec is not before[1]
    assert (ghk.suite.dual_rec, ghk.antiuniform.gowers_norm_rec, ghk.kernels.gowers_sum) == before
    assert numpy.fft.rfftn is fft_before


def test_known_defect_has_its_own_workload():
    kept, _ = workloads.ascent(seed=1, tiny=True)
    defect, _ = workloads.WORKLOADS["ascent-fp-bound"](seed=1, tiny=True)
    assert len(kept) + len(defect) == workloads.POOL * len(workloads.ASCENT_FAMILIES) * 3 * 3
    assert {op.kind for op in defect} == {("decompose", 2)}

    ops, _ = workloads.WORKLOADS["ascent-fp-bound"](seed=1)
    cycle = ops[: len(ops) // workloads.POOL]
    _, outcomes, _, _ = child.run_ops(cycle, count=len(cycle))
    assert workloads.GATE in child.check_all(outcomes, [])
