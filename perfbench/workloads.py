"""The benchmark workloads: their operations and the check of each result.

A workload is a cycle of operations ("ops"), each a call into one public
function of ``ghk`` on inputs drawn from the seeded ``random_function`` /
``random_tuple`` families. Cycle ``c`` draws its inputs from pool slot
``c % POOL``, so the same ``--seed`` always gives the same op sequence.

Every op result is checked after the timed phase. A check returns one of

``OK``     the result passed;
``GATE``   an inequality gate the paper promises failed (a bound, not a value);
``WRONG``  two computations of one quantity disagree (a route against an
           independent route, or an exact identity).

``GATE`` and ``WRONG`` both count as a failed op; only ``WRONG`` (and an op
that raises) makes a run incorrect.

The benchmark's workloads hold only ops that pass. The one known defect,
``decompose`` missing ``||F||_p_k <= 1/delta`` at k=2, delta=0.5 on
``random-nonneg`` inputs, has a workload of its own, ``ascent-fp-bound``,
whose ``failed`` count shows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import ghk
from ghk import suite
from ghk.exponents import exponent_triple

OK, GATE, WRONG = "ok", "gate", "wrong"

#: Pool slots per op kind; longer runs wrap around and repeat inputs.
POOL = 16

#: Lattice pitch of every generated input (the suite's default spacing).
SPACING = 0.125

#: Suite checks whose gate is an identity or a route-against-route
#: comparison; the rest gate inequalities.
SUITE_CROSS_CHECKS = frozenset(
    {
        "eq1.6-homogeneity",
        "eq5.4-product-identity",
        "duality-identity",
        "oracle-norm",
        "spectral-u2",
    }
)

#: Share of the default suite's rep counts run per cycle of ``verify-d1``.
VERIFY_REPS_DIVISOR = 5

#: Workloads whose every prefix of ops keeps the mix, so that a run may stop
#: after any op. The others stop only after whole cycles. A ``verify-d1``
#: cycle takes about 17 s: whole cycles would make its runs last 17 or 34 s.
ANY_PREFIX = frozenset({"verify-d1"})


@dataclass
class Op:
    """One timed call and the check of its result.

    ``kind`` is ``(operation, k)``: set-up warms up one op of each kind.
    ``publish`` names the memo slot the result fills, so that checks of
    other ops on the same input can reuse it instead of recomputing it.
    """

    kind: tuple
    call: Callable[[], Any]
    check: Callable[[Any, "Memo"], str]
    publish: Optional[tuple] = None


class Memo:
    """Reference values shared by the checks of one run, computed once."""

    def __init__(self):
        self._values = {}

    def put(self, key, value):
        self._values.setdefault(key, value)

    def get(self, key, compute):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(b), 1e-300)


def _fields_close(a, b, tol):
    if a.shape != b.shape:
        return False
    return float(np.max(np.abs(a - b))) <= tol * max(float(np.max(np.abs(b))), 1e-300)


def _seed(seed, *parts):
    # a stable, nonnegative 63-bit instance seed from the run seed and slot
    ss = np.random.SeedSequence([int(seed)] + [int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def _interleave(weights):
    """Smooth weighted round robin: every prefix keeps the weights' proportions."""
    total = sum(weights.values())
    current = dict.fromkeys(weights, 0)
    order = []
    for _ in range(total):
        for key, w in weights.items():
            current[key] += w
        pick = max(current, key=current.get)
        current[pick] -= total
        order.append(pick)
    return order


# -- verify-d1 -------------------------------------------------------------


def _verify_check(result, memo):
    record, _ = result
    if record.passed is False:
        return WRONG if record.name in SUITE_CROSS_CHECKS else GATE
    return OK  # passed True, or None (monitored, not gated)


def verify_d1(seed, tiny=False):
    """``suite.run_check`` over the default catalog at d=1, k in {2, 3}.

    Each (check, k) class keeps its default rep count divided by one common
    factor, interleaved so that any prefix of a cycle has the suite's mix.
    """
    config = suite.resolved_config({"n": 4} if tiny else None)
    overrides = config["reps_overrides"]
    weights = {}
    for name in config["checks"]:
        _, applicable = suite.CHECKS[name]
        reps = int(overrides.get(name, config["reps"]))
        for k in config["k"]:
            if applicable(k):
                weights[(name, k)] = 1 if tiny else reps // VERIFY_REPS_DIVISOR
    order = _interleave(weights)
    ops = []
    for c in range(POOL):
        for i, (name, k) in enumerate(order):
            task_seed = _seed(seed, c, i) % (1 << 31)

            def call(name=name, k=k, s=task_seed):
                return suite.run_check(config, name, k, 1, s)

            ops.append(Op((name, k), call, _verify_check))
    return ops, []


# -- ascent ----------------------------------------------------------------

ASCENT_SHAPES = ((2, 8, 2), (1, 16, 3), (3, 4, 2))  # (d, N, k)
ASCENT_SHAPES_TINY = ((2, 3, 2), (1, 4, 3), (3, 2, 2))
ASCENT_FAMILIES = ("random-nonneg", "tent", "gaussian-bump", "indicator-box")
DELTAS = (0.5, 0.25)


def _decompose_check(g, k, delta):
    def check(res, memo):
        dk = ghk.dual_rec(res.F, k)
        if not np.array_equal(dk.values + res.H.values, res.g_normalized.values):
            return WRONG
        trail = res.residual_history
        monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(trail, trail[1:]))
        gates = (
            res.norms["F_p"] * delta <= 1.0 + 1e-6
            and res.norms["F_U"] <= 1.0 + 1e-6
            and res.norms["H_s"] / delta <= 1.05
            and monotone
        )
        return OK if gates else GATE

    return check


def _floor_check(g, k):
    def check(est, memo):
        floor = ghk.lp_norm(g, exponent_triple(k).s_float)
        return OK if est.value >= floor * (1.0 - 1e-9) else GATE

    return check


def fp_bound_defect(family, delta, k):
    """Whether ``decompose`` is known to miss ``||F||_p_k <= 1/delta`` here.

    At k=2, delta=0.5 on ``random-nonneg`` inputs it does so on most seeds
    at d=2, N=8 and d=3, N=4, with ``F_p * delta`` up to about 1.05.
    """
    return family == "random-nonneg" and delta == 0.5 and k == 2


def ascent(seed, tiny=False, defect=False):
    """``decompose`` at two deltas plus ``dual_norm_lower`` per input.

    With ``defect`` false, every op but those of ``fp_bound_defect``; with
    ``defect`` true, only those.
    """
    shapes = ASCENT_SHAPES_TINY if tiny else ASCENT_SHAPES
    ops = []
    for c in range(POOL):
        # shapes vary fastest, so that cheap and dear ops alternate
        for fi, family in enumerate(ASCENT_FAMILIES):
            for oi, delta in enumerate(DELTAS + (None,)):
                for si, (d, n, k) in enumerate(shapes):
                    if fp_bound_defect(family, delta, k) != defect:
                        continue
                    # one input per op: instance costs vary widely, so
                    # independent draws steady the run's total
                    g = ghk.random_function(family, d, n, SPACING, _seed(seed, c, fi, si, oi))
                    if delta is None:
                        ops.append(
                            Op(
                                ("dual_norm_lower", k),
                                lambda g=g, k=k: ghk.dual_norm_lower(g, k),
                                _floor_check(g, k),
                            )
                        )
                    else:
                        ops.append(
                            Op(
                                ("decompose", k),
                                lambda g=g, k=k, delta=delta: ghk.decompose(g, k, delta),
                                _decompose_check(g, k, delta),
                            )
                        )
    return ops, []


# -- fields ----------------------------------------------------------------

FIELD_SHAPES = (
    (1, 64, 2), (1, 64, 3), (1, 32, 4), (2, 16, 2), (2, 16, 3), (3, 8, 2), (3, 6, 3),
)
FIELD_SHAPES_TINY = (
    (1, 8, 2), (1, 8, 3), (1, 4, 4), (2, 4, 2), (2, 4, 3), (3, 3, 2), (3, 2, 3),
)
#: Sizes of the untimed brute-oracle check per (d, k) in ``fields``.
FIELD_ORACLE_SHAPES = (
    (1, 8, 2), (1, 8, 3), (1, 6, 4), (2, 4, 2), (2, 3, 3), (3, 3, 2), (3, 2, 3),
)
FIELD_ORACLE_SHAPES_TINY = (
    (1, 4, 2), (1, 3, 3), (1, 2, 4), (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 1, 3),
)
SIGNS = ("random-signed", "random-nonneg")
IDENTITY_TOL = 1e-9
SPECTRAL_TOL = 1e-8
ORACLE_TOL = 1e-9


def _identity_check(f, k, key, own):
    # <f, D_k f> = ||f||_U(k)^(2^k), whichever of the two is this op's result
    def check(result, memo):
        norm = result if own == "norm" else memo.get(("norm", key), lambda: ghk.gowers_norm_rec(f, k))
        dual = result if own == "dual" else memo.get(("dual", key), lambda: ghk.dual_rec(f, k))
        lhs = ghk.inner(f, dual)
        return OK if _rel_close(lhs, norm ** (1 << k), IDENTITY_TOL) else WRONG

    return check


def _spectral_check(f, key):
    def check(spec, memo):
        rec = memo.get(("norm", key), lambda: ghk.gowers_norm_rec(f, 2))
        return OK if _rel_close(spec, rec, SPECTRAL_TOL) else WRONG

    return check


def _oracle_op(f, k):
    """Untimed: brute norm and brute dual field against the recursive routes."""

    def call():
        fs = ghk.FunctionTuple.constant(f, k, punctured=True)
        return ghk.gowers_norm_brute(f, k), ghk.dual_brute(fs)

    def check(result, memo):
        norm, dual = result
        ok = _rel_close(norm, ghk.gowers_norm_rec(f, k), ORACLE_TOL) and _fields_close(
            dual.values, ghk.dual_rec(f, k).values, ORACLE_TOL
        )
        return OK if ok else WRONG

    return Op(("oracle", k), call, check)


def fields(seed, tiny=False):
    """Direct recursive and spectral calls on signed and nonnegative inputs."""
    shapes = FIELD_SHAPES_TINY if tiny else FIELD_SHAPES
    ops = []
    for c in range(POOL):
        for sign in SIGNS:
            for si, (d, n, k) in enumerate(shapes):
                f = ghk.random_function(sign, d, n, SPACING, _seed(seed, c, SIGNS.index(sign), si))
                key = (c, sign, si)
                ops.append(
                    Op(
                        ("gowers_norm_rec", k),
                        lambda f=f, k=k: ghk.gowers_norm_rec(f, k),
                        _identity_check(f, k, key, "norm"),
                        ("norm", key),
                    )
                )
                ops.append(
                    Op(
                        ("dual_rec", k),
                        lambda f=f, k=k: ghk.dual_rec(f, k),
                        _identity_check(f, k, key, "dual"),
                        ("dual", key),
                    )
                )
                if k == 2:
                    ops.append(
                        Op(
                            ("gowers_norm_spectral_u2", k),
                            lambda f=f: ghk.gowers_norm_spectral_u2(f),
                            _spectral_check(f, key),
                        )
                    )
    oracle_shapes = FIELD_ORACLE_SHAPES_TINY if tiny else FIELD_ORACLE_SHAPES
    extra = [
        _oracle_op(ghk.random_function(SIGNS[i % 2], d, n, SPACING, _seed(seed, POOL, i)), k)
        for i, (d, n, k) in enumerate(oracle_shapes)
    ]
    return ops, extra


# -- oracle-nd -------------------------------------------------------------

#: (d, N, k, routes): the brute routes timed at each multi-axis shape.
#: ``"full"`` is left out where one call would exceed about a second.
ORACLE_SHAPES = (
    (2, 3, 2, ("norm", "frame", "full")),
    (2, 4, 2, ("norm", "frame", "full")),
    (2, 5, 2, ("norm", "frame", "full")),
    (2, 2, 3, ("norm", "frame", "full")),
    (2, 3, 3, ("norm", "frame")),
    (3, 2, 2, ("norm", "frame", "full")),
    (3, 3, 2, ("norm", "frame")),
)
ORACLE_SHAPES_TINY = (
    (2, 2, 2, ("norm", "frame", "full")),
    (2, 1, 3, ("norm", "frame", "full")),
    (3, 1, 2, ("norm", "frame", "full")),
)


def _brute_norm_check(f, k):
    def check(value, memo):
        return OK if _rel_close(value, ghk.gowers_norm_rec(f, k), ORACLE_TOL) else WRONG

    return check


def _brute_dual_check(f, k, out_box):
    def check(field, memo):
        ref = ghk.dual_rec(f, k, out_box)
        same_box = field.origin == ref.origin
        return OK if same_box and _fields_close(field.values, ref.values, ORACLE_TOL) else WRONG

    return check


def oracle_nd(seed, tiny=False):
    """The brute oracles on multi-axis boxes, against the recursive routes."""
    shapes = ORACLE_SHAPES_TINY if tiny else ORACLE_SHAPES
    ops = []
    for c in range(POOL):
        for si, (d, n, k, routes) in enumerate(shapes):
            f = ghk.random_function("random-nonneg", d, n, SPACING, _seed(seed, c, si))
            fs = ghk.FunctionTuple.constant(f, k, punctured=True)
            for route in routes:
                if route == "norm":
                    ops.append(
                        Op(
                            ("gowers_norm_brute", k),
                            lambda f=f, k=k: ghk.gowers_norm_brute(f, k),
                            _brute_norm_check(f, k),
                        )
                    )
                else:
                    out_box = "full" if route == "full" else None
                    ops.append(
                        Op(
                            (f"dual_brute-{route}", k),
                            lambda fs=fs, out_box=out_box: ghk.dual_brute(fs, out_box),
                            _brute_dual_check(f, k, out_box),
                        )
                    )
    return ops, []


# -- routes ----------------------------------------------------------------


def routes(seed, tiny=False):
    """``fields`` and ``oracle-nd`` in one cycle: the fast routes and the
    multi-axis brute oracles, each called directly on fixed shapes.

    They share one workload so that each run measures long enough to be
    steady on a noisy host; the per-layer trace still tells them apart.
    """
    field_ops, extra = fields(seed, tiny)
    oracle_ops, _ = oracle_nd(seed, tiny)
    nf, no = len(field_ops) // POOL, len(oracle_ops) // POOL
    ops = []
    for c in range(POOL):
        cycle = [(i / nf, op) for i, op in enumerate(field_ops[c * nf : (c + 1) * nf])]
        cycle += [((i + 0.5) / no, op) for i, op in enumerate(oracle_ops[c * no : (c + 1) * no])]
        # spread the two halves evenly over the cycle
        ops += [op for _, op in sorted(cycle, key=lambda pair: pair[0])]
    return ops, extra


WORKLOADS = {
    "verify-d1": verify_d1,
    "ascent": ascent,
    "ascent-fp-bound": lambda seed, tiny=False: ascent(seed, tiny, defect=True),
    "routes": routes,
}


def warmup_ops(ops):
    """The first op of each kind, in order of first appearance."""
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())

