"""Seeded randomized verification sweeps.

Every check is a pure function of ``(name, k, d, seed)`` plus the shared
configuration, so any record can be replayed bit-identically from its
coordinates. Sweeps run in a thread pool over independent instances; records
are sorted before assembly, so parallel and serial runs produce identical
reports.

``CHECKS`` maps each record name to its check. The catalog of what each one
gates, with its tolerance, is the table under "Verification suite" in the
README; the tolerances themselves are named once, in ``records``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from . import __version__
from .antiuniform import AscentOptions, corollary5, decompose, dual_norm_lower
from .budget import BudgetExceededError
from .dual import (
    _dual_field,
    continuity_modulus,
    dual_brute,
    dual_rec,
    fourier_bound_gap,
    lemma1_gap,
    product_bound_gap,
    product_identity_gap,
)
from .exponents import exponent_triple
from .families import random_function, random_tuple, unit_p_norm
from .grid import inner, lp_norm, scale
from .gridio import write_ghk
from .norms import csg_gap, gowers_norm_brute, gowers_norm_rec, gowers_norm_spectral_u2
from .records import (
    CORRELATION_SHORTFALL,
    H_BOUND,
    HOMOGENEITY_TOL,
    IDENTITY_TOL,
    INEQ_SLACK,
    ORACLE_TOL,
    SPECTRAL_TOL,
    UNIT_BOUND_SLACK,
    SuiteReport,
    check_record,
    config_hash,
    instance_params,
    shared_params,
)

DEFAULT_CONFIG = {
    "version": 1,
    "k": [2, 3],
    "d": [1],
    "n": 16,
    "spacing": 0.125,
    "base_seed": 20240,
    "reps": 100,
    "reps_overrides": {
        "eq2.3-floor": 25,
        "eq3.2-witness": 25,
        "eq4.2-decompose": 10,
        "eq4.9-corollary5": 10,
        "eq5.4-product-identity": 25,
        "eq5.7-fourier": 25,
        "oracle-norm": 50,
        "oracle-dual-tuple": 25,
        "spectral-u2": 50,
        "duality-identity": 50,
        "eq5.2-continuity": 50,
    },
    "deltas": [0.5, 0.25],
    "ascent": {},
    "work_budget": None,
    "checks": None,  # None selects the full catalog
}


class _Ctx:
    def __init__(self, config):
        self.n_cap = int(config.get("n", 16))
        self.w = float(config.get("spacing", 0.125))
        self.deltas = [float(x) for x in config.get("deltas", [0.5, 0.25])]
        self.opts = AscentOptions(**config.get("ascent", {}))
        self.work_budget = config.get("work_budget")

    def size(self, k, d, d1_by_k, dn_by_k):
        """Instance extent per axis: d = 1 sizes, shrunk for d >= 2 so the
        brute sweeps stay inside the default work budget."""
        table = d1_by_k if d == 1 else dn_by_k
        return min(self.n_cap, table[0] if k == 2 else table[1])


def _alternating_family(seed):
    return "random-signed" if seed % 2 else "random-nonneg"


# each check: fn(ctx, k, d, seed) -> (CheckRecord, {filename: GridFunction})


def _nonneg(ctx, k, d, n, seed, punctured=True):
    """``(fs, grids)``: one random-nonneg tuple and its grids ``f_i``."""
    fs = random_tuple("random-nonneg", k, d, n, ctx.w, seed, punctured=punctured)
    return fs, {f"f_{i}": g for i, g in enumerate(fs)}


def _nonneg_pair(ctx, k, d, n, seed):
    """``(fs1, fs2, grids)``: two punctured tuples and their grids ``a_i``, ``b_i``."""
    fs1, _ = _nonneg(ctx, k, d, n, seed)
    fs2, _ = _nonneg(ctx, k, d, n, seed + 104729)
    grids = {f"{tag}_{i}": g for tag, fs in (("a", fs1), ("b", fs2)) for i, g in enumerate(fs)}
    return fs1, fs2, grids


def _tagged(rec):
    # the library checks record the tuple's coordinates; the suite adds its family
    rec.params = shared_params({**rec.params, "family": "random-nonneg"})
    return rec


def _chk_monotone(ctx, k, d, seed):
    n = ctx.size(k, d, (16, 8), (6, 4))
    f = random_function("random-nonneg", d, n, ctx.w, seed)
    lhs = gowers_norm_rec(f, k)
    rhs = lp_norm(f, exponent_triple(k).p_float)
    passed = lhs <= rhs * (1.0 + INEQ_SLACK)
    params = instance_params(k, d, n, ctx.w, family="random-nonneg")
    return check_record("eq1.2-monotone", lhs, rhs, passed, params), {"f": f}


def _chk_csg(ctx, k, d, seed):
    fs, grids = _nonneg(ctx, k, d, ctx.size(k, d, (16, 8), (6, 4)), seed, punctured=False)
    return _tagged(csg_gap(fs, work_budget=ctx.work_budget)), grids


def _chk_homogeneity(ctx, k, d, seed):
    n = ctx.size(k, d, (12, 8), (5, 4))
    family = _alternating_family(seed)
    f = random_function(family, d, n, ctx.w, seed)
    t = (-2.0, 0.5, 3.0)[seed % 3]
    left = dual_rec(scale(f, t), k)
    right = scale(dual_rec(f, k), t ** ((1 << k) - 1))
    diff = float(np.max(np.abs(left.values - right.values)))
    scale_ref = float(np.max(np.abs(right.values)))
    passed = diff <= HOMOGENEITY_TOL * max(scale_ref, 1e-300)
    params = instance_params(k, d, n, ctx.w, family=family, t=t)
    return check_record("eq1.6-homogeneity", diff, scale_ref, passed, params), {"f": f}


def _chk_lemma1(ctx, k, d, seed):
    fs, grids = _nonneg(ctx, k, d, ctx.size(k, d, (12, 8), (6, 4)), seed)
    return _tagged(lemma1_gap(fs, work_budget=ctx.work_budget)), grids


def _chk_floor(ctx, k, d, seed):
    n = ctx.size(k, d, (8, 8), (5, 5))
    g = random_function("random-nonneg", d, n, ctx.w, seed)
    est = dual_norm_lower(g, k, ctx.opts)
    floor = lp_norm(g, exponent_triple(k).s_float)
    passed = est.value >= floor * (1.0 - INEQ_SLACK)
    params = instance_params(k, d, n, ctx.w, family="random-nonneg")
    extra = {"iterations": est.iterations, "converged": est.converged}
    rec = check_record("eq2.3-floor", est.value, floor, passed, params, extra=extra)
    return rec, {"g": g}


def _chk_lemma2(ctx, k, d, seed):
    n = ctx.size(k, d, (8, 8), (5, 5))
    fs, grids = _nonneg(ctx, k, d, n, seed)
    h = random_function("random-nonneg", d, n, ctx.w, seed + 7919)
    hu = gowers_norm_rec(h, k)
    if hu > 0:
        h = scale(h, 1.0 / hu)
    grids["h"] = h
    lhs = inner(_dual_field(fs, None, ctx.work_budget), h)
    rhs = float(np.prod([gowers_norm_rec(f, k) for f in fs]))
    rhs2 = float(np.prod([lp_norm(f, exponent_triple(k).p_float) for f in fs]))
    passed = lhs <= rhs * (1.0 + INEQ_SLACK) and rhs <= rhs2 * (1.0 + INEQ_SLACK)
    params = instance_params(k, d, n, ctx.w, family="random-nonneg")
    rec = check_record("eq3.1-lemma2", lhs, rhs, passed, params, extra={"rhs_lp": rhs2})
    return rec, grids


def _chk_witness(ctx, k, d, seed):
    n = ctx.size(k, d, (8, 8), (5, 5))
    f = random_function("random-nonneg", d, n, ctx.w, seed)
    g = dual_rec(f, k)
    u = gowers_norm_rec(f, k)
    pairing = inner(g, scale(f, 1.0 / u))
    target = u ** ((1 << k) - 1)
    est = dual_norm_lower(g, k, ctx.opts, candidates=(f,))
    passed = (
        abs(pairing - target) <= IDENTITY_TOL * max(target, 1e-300)
        and est.value >= target * (1.0 - INEQ_SLACK)
    )
    params = instance_params(k, d, n, ctx.w, family="random-nonneg")
    extra = {"dual_estimate": est.value}
    rec = check_record("eq3.2-witness", pairing, target, passed, params, extra=extra)
    return rec, {"f": f}


def _monotone_tail(history, window=10):
    tail = history[-window:]
    return all(tail[i + 1] <= tail[i] * (1.0 + INEQ_SLACK) for i in range(len(tail) - 1))


def _chk_decompose(ctx, k, d, seed):
    n = ctx.size(k, d, (8, 8), (6, 6))
    g = random_function("random-nonneg", d, n, ctx.w, seed)
    details = {}
    worst = 0.0
    all_ok = True
    for delta in ctx.deltas:
        res = decompose(g, k, delta, ctx.opts)
        dk = dual_rec(res.F, k)
        exact = bool(np.array_equal(dk.values + res.H.values, res.g_normalized.values))
        mono = _monotone_tail(res.residual_history)
        ratios = {
            "F_p": res.norms["F_p"] * delta,
            "F_U": res.norms["F_U"],
            "H_s": res.norms["H_s"] / delta,
        }
        ok = (
            ratios["F_p"] <= 1.0 + UNIT_BOUND_SLACK
            and ratios["F_U"] <= 1.0 + UNIT_BOUND_SLACK
            and ratios["H_s"] <= H_BOUND
            and exact
            and mono
        )
        details[str(delta)] = {
            **ratios,
            "exact": exact,
            "monotone_tail": mono,
            "C": res.C,
            "iterations": res.iterations,
            "stationarity_residual": res.stationarity_residual,
        }
        worst = max(worst, ratios["H_s"])
        all_ok = all_ok and ok
    params = instance_params(k, d, n, ctx.w, family="random-nonneg")
    rec = check_record("eq4.2-decompose", worst, H_BOUND, all_ok, params, extra=details)
    return rec, {"g": g}


def _chk_corollary5(ctx, k, d, seed):
    n = ctx.size(k, d, (8, 8), (6, 6))
    phi = unit_p_norm(random_function("random-nonneg", d, n, ctx.w, seed), k)
    theta = gowers_norm_rec(phi, k)
    f = corollary5(phi, k, ctx.opts)
    pairing = inner(dual_rec(f, k), phi)
    floor = (theta / 2.0) ** (1 << k) * (1.0 - CORRELATION_SHORTFALL)
    pn = lp_norm(f, exponent_triple(k).p_float)
    passed = pairing > floor and pn <= 1.0 + UNIT_BOUND_SLACK
    params = instance_params(k, d, n, ctx.w, family="random-nonneg")
    extra = {"theta": theta, "f_p_norm": pn}
    rec = check_record("eq4.9-corollary5", pairing, floor, passed, params, extra=extra)
    return rec, {"phi": phi, "f": f}


def _chk_continuity(ctx, k, d, seed):
    n = ctx.size(k, d, (8, 6), (5, 3))
    fs, grids = _nonneg(ctx, k, d, n, seed)
    v = (seed % (n // 2 + 1),) * d
    return _tagged(continuity_modulus(fs, v, work_budget=ctx.work_budget)), grids


def _chk_product_identity(ctx, k, d, seed):
    fs1, fs2, grids = _nonneg_pair(ctx, k, d, ctx.size(k, d, (4, 4), (3, 3)), seed)
    return _tagged(product_identity_gap(fs1, fs2, work_budget=ctx.work_budget)), grids


def _chk_product_bound(ctx, k, d, seed):
    fs1, fs2, grids = _nonneg_pair(ctx, k, d, ctx.size(k, d, (8, 8), (5, 5)), seed)
    return _tagged(product_bound_gap(fs1, fs2, work_budget=ctx.work_budget)), grids


def _chk_fourier(ctx, k, d, seed):
    fs, grids = _nonneg(ctx, k, d, ctx.size(k, d, (4, 4), (3, 3)), seed)
    return _tagged(fourier_bound_gap(fs, work_budget=ctx.work_budget)), grids


def _chk_duality(ctx, k, d, seed):
    n = ctx.size(k, d, (12, 8), (6, 4))
    family = _alternating_family(seed)
    f = random_function(family, d, n, ctx.w, seed)
    lhs = inner(f, dual_rec(f, k))
    rhs = gowers_norm_rec(f, k) ** (1 << k)
    passed = abs(lhs - rhs) <= IDENTITY_TOL * max(rhs, 1e-300)
    params = instance_params(k, d, n, ctx.w, family=family)
    return check_record("duality-identity", lhs, rhs, passed, params), {"f": f}


def _chk_oracle(ctx, k, d, seed):
    n = ctx.size(k, d, (8, 8), (5, 5))
    f = random_function("random-nonneg", d, n, ctx.w, seed)
    brute = gowers_norm_brute(f, k, ctx.work_budget)
    recv = gowers_norm_rec(f, k)
    passed = abs(recv - brute) <= ORACLE_TOL * max(1.0, brute)
    params = instance_params(k, d, n, ctx.w, family="random-nonneg")
    return check_record("oracle-norm", recv, brute, passed, params), {"f": f}


def _chk_oracle_dual_tuple(ctx, k, d, seed):
    n = ctx.size(k, d, (8, 5), (4, 3))
    family = _alternating_family(seed)
    out_box = "full" if seed // 2 % 2 else None
    fs = random_tuple(family, k, d, n, ctx.w, seed, punctured=True)
    recv = _dual_field(fs, out_box, ctx.work_budget)
    brute = dual_brute(fs, out_box, ctx.work_budget)
    same_box = recv.box == brute.box
    diff = float(np.max(np.abs(recv.values - brute.values))) if same_box else np.inf
    scale_ref = float(np.max(np.abs(brute.values)))
    passed = diff <= ORACLE_TOL * max(1.0, scale_ref)
    params = instance_params(k, d, n, ctx.w, family=family, out_box=out_box or "frame")
    rec = check_record("oracle-dual-tuple", diff, scale_ref, passed, params)
    return rec, {f"f_{i}": g for i, g in enumerate(fs)}


def _chk_spectral(ctx, k, d, seed):
    n = ctx.size(k, d, (12, 12), (6, 6))
    family = _alternating_family(seed)
    f = random_function(family, d, n, ctx.w, seed)
    spec = gowers_norm_spectral_u2(f)
    brute = gowers_norm_brute(f, 2, ctx.work_budget)
    passed = abs(spec - brute) <= SPECTRAL_TOL * max(1.0, brute)
    params = instance_params(2, d, n, ctx.w, family=family)
    return check_record("spectral-u2", spec, brute, passed, params), {"f": f}


# name -> (fn, applicable(k))
CHECKS = {
    "eq1.2-monotone": (_chk_monotone, lambda k: True),
    "eq1.5-csg": (_chk_csg, lambda k: True),
    "eq1.6-homogeneity": (_chk_homogeneity, lambda k: True),
    "eq2.1-lemma1": (_chk_lemma1, lambda k: True),
    "eq2.3-floor": (_chk_floor, lambda k: True),
    "eq3.1-lemma2": (_chk_lemma2, lambda k: True),
    "eq3.2-witness": (_chk_witness, lambda k: True),
    "eq4.2-decompose": (_chk_decompose, lambda k: True),
    "eq4.9-corollary5": (_chk_corollary5, lambda k: True),
    "eq5.2-continuity": (_chk_continuity, lambda k: True),
    "eq5.4-product-identity": (_chk_product_identity, lambda k: k == 2),
    "eq5.6-product-bound": (_chk_product_bound, lambda k: k == 2),
    "eq5.7-fourier": (_chk_fourier, lambda k: k == 3),
    "duality-identity": (_chk_duality, lambda k: True),
    "oracle-norm": (_chk_oracle, lambda k: True),
    "oracle-dual-tuple": (_chk_oracle_dual_tuple, lambda k: True),
    "spectral-u2": (_chk_spectral, lambda k: k == 2),
}


def resolved_config(config=None):
    merged = dict(DEFAULT_CONFIG)
    if config:
        merged.update(config)
    if merged.get("checks") is None:
        merged["checks"] = list(CHECKS)
    return merged


def run_check(config, name, k, d, seed):
    """Replay a single record from its coordinates, bit-identically.

    Returns ``(record, grids)``; ``grids`` holds the instance's input grids
    only when the record failed, and is ``None`` otherwise.
    """
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    fn, applicable = CHECKS[name]
    if not applicable(k):
        raise ValueError(f"check {name} does not apply at k={k}")
    ctx = _Ctx(resolved_config(config))
    t0 = time.perf_counter()
    record, grids = fn(ctx, k, d, seed)
    record.seed = seed
    record.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return record, grids if record.passed is False else None


def _write_failure_artifacts(directory, record, grids):
    tag = f"{record.name}-k{record.params.get('k')}-d{record.params.get('d')}-s{record.seed}"
    case_dir = os.path.join(directory, tag.replace("/", "_"))
    os.makedirs(case_dir, exist_ok=True)
    for name, g in grids.items():
        write_ghk(g, os.path.join(case_dir, f"{name}.ghk"))
    replay = _replay(record.name, record.params.get("k"), record.params.get("d"), record.seed)
    with open(os.path.join(case_dir, "replay.txt"), "w") as fh:
        fh.write(replay + "\n")
    return case_dir


def _replay(name, k, d, seed):
    return f"ghk verify --replay '{name}:{k}:{d}:{seed}'"


def run_suite(config=None, threads=None, artifacts_dir=None):
    """Execute all configured sweeps and aggregate a deterministic report.

    Checks run serially unless ``threads`` > 1 asks for a thread pool; the
    report is the same either way.
    A work-budget overflow in any sub-check aborts the run after serializing
    the offending instance for replay. Failing (gated) instances are written
    as GHK1 grids plus a replay command when ``artifacts_dir`` is given.
    """
    config = resolved_config(config)
    _Ctx(config)  # validate config eagerly
    base_seed = int(config.get("base_seed", 0))
    reps_default = int(config.get("reps", 100))
    overrides = config.get("reps_overrides", {})

    tasks = []
    for name in config["checks"]:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r} in config")
        _, applicable = CHECKS[name]
        reps = int(overrides.get(name, reps_default))
        for k in config["k"]:
            if not applicable(int(k)):
                continue
            for d in config["d"]:
                for i in range(reps):
                    tasks.append((name, int(k), int(d), base_seed + i))

    records = []
    failures = []
    n_threads = threads or 1

    def _run(task):
        try:
            return task, run_check(config, *task)
        except BudgetExceededError as err:
            return task, err

    if n_threads > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = list(pool.map(_run, tasks))
    else:
        outcomes = [_run(t) for t in tasks]

    budget_abort = None
    for task, outcome in outcomes:
        if isinstance(outcome, BudgetExceededError):
            if budget_abort is None:
                budget_abort = (task, outcome)
            continue
        record, grids = outcome
        records.append(record)
        if record.passed is False:
            failures.append((record, grids))

    if artifacts_dir:
        for record, grids in failures:
            _write_failure_artifacts(artifacts_dir, record, grids)

    if budget_abort:
        task, err = budget_abort
        replay = _replay(*task)
        if artifacts_dir:
            os.makedirs(artifacts_dir, exist_ok=True)
            with open(os.path.join(artifacts_dir, "budget-abort.txt"), "w") as fh:
                fh.write(replay + "\n")
        raise BudgetExceededError(err.kind, err.needed, err.budget) from err

    return SuiteReport(
        version=__version__, config_hash=config_hash(config), records=records
    )
