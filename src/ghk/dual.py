"""Cubic convolution products (dual functions) and their inequality checks.

The order-k dual field of a punctured vertex tuple is

    D_k(f_alpha)(x) = sum_h w^(kd) prod_{alpha != 0} f_alpha(x + alpha.h),

a continuous, compactly supported function. Each field has two evaluation
boxes: the frame of its inputs (``out_box=None``, the default), and its
order-k support (``out_box="full"``), per axis
``[-floor((N-1)/(k-1)), floor(k(N-1)/(k-1))]`` on a frame of extent ``N``,
off which it is exactly zero; checks that take a maximum over *all* x
evaluate on the support. Both routes below take the support box from
``_resolve_out_box``.

``dual_rec`` takes a punctured tuple, or a grid function ``f`` and ``k`` for
the all-equal tuple, and peels the top cube coordinate,

    D_k(f_alpha)(x) = w^d sum_t f_top(x+t) D_(k-1)(f_b . f_(b|top)(.+t) : b)(x),

down to an order-2 base evaluated by FFT, ``irfftn(F_1 F_2 conj(F_3))``,
through the shift-product engine it shares with ``norms.gowers_norm_rec``
and ``norms.gowers_inner``. An all-equal tuple stays all-equal under every
peel, so the engine carries it as one row with one spectrum, and its first
peel walks half the shifts: ``h`` and ``-h`` give translates of one row. The
route matches ``dual_brute`` pointwise to float roundoff at a fraction of
the cost, and every check below evaluates its fields by it; ``dual_brute``
and the pair kernel of ``product_identity_gap`` remain the oracles. The engine
pads each axis only as far as the box needs: 2N on the frame box, about 3N
on the support at k=2, less at higher k, whose support is narrower.
``_norm_and_dual`` takes the norm and the field on the frame from one pass.
Both routes evaluate on each row rescaled by a power of two.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .budget import brute_dual_work, brute_pair_work, check_work
from .cubes import FunctionTuple
from .exponents import exponent_triple
from .grid import (
    GridFunction,
    _check_pow2,
    _frozen,
    _scale_back,
    _unit_binade,
    add,
    common_frame,
    fourier,
    intersection_box,
    lp_norm,
    pointwise_mul,
    scale,
    shift,
)
from .norms import _dual_unit, _norm_from_power, _shift_product_sum, _unit_rows
from .records import FOURIER_SLACK, IDENTITY_TOL, INEQ_SLACK, check_record, instance_params


def _require_punctured(fs, who):
    if not isinstance(fs, FunctionTuple):
        raise TypeError(f"{who} expects a FunctionTuple over the punctured cube")
    if not fs.vertex_set.punctured:
        raise ValueError(f"{who} needs the punctured vertex set (no zero vertex)")


def _require_pair(fs1, fs2, who):
    # two punctured tuples of one cube order; returns that order
    _require_punctured(fs1, who)
    _require_punctured(fs2, who)
    if fs1.k != fs2.k:
        raise ValueError("tuples must share the cube order k")
    return fs1.k


def _resolve_out_box(n, k, out_box):
    """Evaluation box ``(lo, shape)`` of an order-k field, relative to a frame
    of extents ``n``.

    ``None`` selects the frame itself; ``"full"`` the field's order-k support:
    with ``p_i = y + h_i`` in ``[0, N)``, the full-cube vertex reads
    ``y + sum h_i = sum p_i - (k-1) y``, so per axis
    ``-floor((N-1)/(k-1)) <= y <= floor(k(N-1)/(k-1))``.
    """
    if out_box is None:
        return (0,) * len(n), n
    if out_box != "full":
        raise ValueError(f"out_box must be None or 'full', got {out_box!r}")
    if k < 2:
        raise ValueError("an order-1 field is constant: it has no bounded support")
    lo = tuple(-((m - 1) // (k - 1)) for m in n)
    return lo, tuple(k * (m - 1) // (k - 1) + 1 - a for a, m in zip(lo, n))


def dual_brute(fs, out_box=None, work_budget=None):
    """Brute-force cubic convolution product of a punctured tuple, on its
    frame (``out_box=None``) or its order-k support (``out_box="full"``),
    evaluated on its rows rescaled by ``_unit_rows``."""
    _require_punctured(fs, "dual_brute")
    lo, hi, stack = fs.stacked()
    extents = tuple(h - l for l, h in zip(lo, hi))
    rel_lo, out_shape = _resolve_out_box(extents, fs.k, out_box)
    check_work(brute_dual_work(extents, fs.k, out_shape), work_budget)
    rows, e = _unit_rows(stack)
    raw = kernels.dual_field_sum(rows, fs.k, rel_lo, out_shape)
    origin = tuple(fl + rl for fl, rl in zip(lo, rel_lo))
    field = _field_from(raw * fs.spacing ** (fs.k * fs.dim), fs.k, e)
    return GridFunction(_frozen(field), fs.spacing, origin)


def _field_from(field, k, e):
    """The dual field from one whose factors were rescaled by ``2**-e`` in
    all (one factor per row, so ``e`` sums the rows' exponents)."""
    _check_pow2(float(np.abs(field).max()), e, f"order-{k} dual field")
    return np.ldexp(field, e)


def dual_rec(f, k=None, out_box=None, work_budget=None):
    """Recursive dual field of a punctured tuple, or of the all-equal tuple
    ``f_alpha = f`` of a grid function ``f`` and order ``k``, on its frame
    (``out_box=None``) or its order-k support (``out_box="full"``).

    Cost is at most ``(2N-1)^((k-2)d)`` order-2 bases of three padded
    transforms each, instead of the ``(2N)^(kd)`` shift sum of :func:`dual_brute`. An
    all-equal tuple is carried as one row with one transform per base, and
    at k >= 3 its first peel folds each shift ``h`` with ``-h``, which
    halves its bases. The cost model ``budget.rec_gowers_work`` is checked
    against ``work_budget`` first.
    Evaluated on each row rescaled by a power of two, so the field comes back
    correctly scaled, or ``OverflowError`` is raised when its largest
    magnitude is not a normal float64.
    """
    if isinstance(f, FunctionTuple):
        _require_punctured(f, "dual_rec")
        if k is not None and int(k) != f.k:
            raise ValueError(f"dual_rec got k={k} for a tuple of order {f.k}")
        fs = f
    else:
        if k is None:
            raise TypeError("dual_rec needs the order k of a grid function")
        fs = FunctionTuple.constant(f, int(k), punctured=True)
    return _dual_field(fs, out_box, work_budget)


def _dual_field(fs, out_box=None, work_budget=None):
    """:func:`dual_rec` of a punctured tuple. The checks take this route: the
    span that ``perfbench/tracer.py`` meters as ``dual.dual_rec`` reads a
    grid function and its ``k``."""
    unit, e = _dual_rec_unit(fs, out_box, work_budget)
    return GridFunction(_frozen(_field_from(unit.values, fs.k, e)), fs.spacing, unit.origin)


def _dual_rec_unit(fs, out_box, work_budget):
    """``(D_k of fs's rows rescaled by powers of two, their exponent sum)``
    by the recursion, as a grid function on the resolved box."""
    if fs.k < 2:
        raise ValueError(f"dual_rec requires k >= 2, got {fs.k}")
    lo, _, stack = fs.stacked()
    rel_lo, out_shape = _resolve_out_box(stack.shape[1:], fs.k, out_box)
    raw, e = _dual_unit(stack, fs.k, rel_lo, out_shape, work_budget)
    origin = tuple(fl + rl for fl, rl in zip(lo, rel_lo))
    return GridFunction(_frozen(raw * fs.spacing ** (fs.k * fs.dim)), fs.spacing, origin), e


def _norm_and_dual(values, spacing, k):
    """``(||f||_U(k), D_k f on the frame)`` for frame values, from one pass
    of the engine.

    The field equals ``dual_rec(f, k).values`` bit for bit; the norm is the
    power sum the same pass takes from its base spectra, exact because the
    frame box contains the frame.
    """
    scaled, e = _unit_binade(values)
    raw, power = _shift_product_sum(scaled[None], k, (0,) * scaled.ndim, scaled.shape)
    return (
        _norm_from_power(power * spacing ** ((k + 1) * scaled.ndim), k, e),
        _field_from(raw * spacing ** (k * scaled.ndim), k, e * ((1 << k) - 1)),
    )


# ---------------------------------------------------------------------------
# inequality and identity checks
# ---------------------------------------------------------------------------


def lemma1_gap(fs, work_budget=None):
    """Sup-norm domination of the dual field by the product of L^q_k norms."""
    _require_punctured(fs, "lemma1_gap")
    trip = exponent_triple(fs.k)
    field = _dual_field(fs, "full", work_budget)
    nonneg = fs.is_nonnegative()
    lhs = float(np.max(field.values)) if nonneg else float(np.max(np.abs(field.values)))
    lhs = max(lhs, 0.0)
    rhs = float(np.prod([lp_norm(g, trip.q_float) for g in fs]))
    passed = lhs <= rhs * (1.0 + INEQ_SLACK)
    params = instance_params(fs.k, fs.dim, fs.extent, fs.spacing)
    return check_record("eq2.1-lemma1", lhs, rhs, passed, params, signed=not nonneg)


def continuity_modulus(fs, v, work_budget=None):
    """Shift-continuity of the dual field against its translation majorant.

    The majorant telescopes one vertex at a time: for each vertex, one factor
    is the q_k norm of ``f - f^(v w)`` and the rest are plain q_k norms.
    """
    _require_punctured(fs, "continuity_modulus")
    if np.isscalar(v):
        v = (v,) * fs.dim
    v = tuple(int(c) for c in v)
    trip = exponent_triple(fs.k)
    field = _dual_field(fs, "full", work_budget)
    diff = add(field, scale(shift(field, v), -1.0))
    lhs = lp_norm(diff, np.inf)
    qnorms = [lp_norm(g, trip.q_float) for g in fs]
    rhs = 0.0
    for i, g in enumerate(fs):
        prod = lp_norm(add(g, scale(shift(g, v), -1.0)), trip.q_float)
        for q in qnorms[:i] + qnorms[i + 1 :]:
            prod *= q
        rhs += prod
    params = instance_params(fs.k, fs.dim, fs.extent, fs.spacing, v=v)
    passed = lhs <= rhs * (1.0 + INEQ_SLACK)
    signed = not fs.is_nonnegative()
    return check_record("eq5.2-continuity", lhs, rhs, passed, params, signed=signed)


def product_identity_gap(fs1, fs2, work_budget=None):
    """Pointwise product of two dual fields versus the literal double shift sum.

    The double sum is evaluated without the change of variables that proves
    the identity, so the two routes are independent. Work grows with the
    (2k)-fold shift space: smallest instances only. Both routes run on rows
    rescaled by powers of two, the gate compares the rescaled values, and
    ``lhs``/``rhs`` are scaled back or raise ``OverflowError``.
    """
    k = _require_pair(fs1, fs2, "product_identity_gap")
    (g1, e1), (g2, e2) = (_dual_rec_unit(fs, None, work_budget) for fs in (fs1, fs2))
    lhs_field = pointwise_mul(g1, g2)
    box = intersection_box([g1.box, g2.box])
    if box is None:
        lhs = rhs_scale = 0.0
    else:
        lo, hi, stack = common_frame(list(fs1) + list(fs2))
        m = len(fs1.functions)
        rel_lo = tuple(b - fl for b, fl in zip(box[0], lo))
        out_shape = tuple(h - l for l, h in zip(*box))
        extents = tuple(h - l for l, h in zip(lo, hi))
        check_work(brute_pair_work(extents, k, out_shape), work_budget)
        rows, _ = _unit_rows(stack)
        raw = kernels.dual_pair_field_sum(rows[:m], rows[m:], k, rel_lo, out_shape)
        rhs_field = raw * fs1.spacing ** (2 * k * fs1.dim)
        lhs = float(np.max(np.abs(lhs_field.values - rhs_field)))
        rhs_scale = float(np.max(np.abs(lhs_field.values)))
    passed = (lhs <= IDENTITY_TOL * max(rhs_scale, 1e-300)) or (lhs == 0.0)
    lhs, rhs_scale = (_scale_back(v, e1 + e2, "dual field product") for v in (lhs, rhs_scale))
    params = instance_params(k, fs1.dim, fs1.extent, fs1.spacing)
    return check_record("eq5.4-product-identity", lhs, rhs_scale, passed, params)


def product_bound_gap(fs1, fs2, work_budget=None):
    """Sup bound for the product of two dual fields by the q_k norm products,
    gated on rows rescaled by powers of two like ``product_identity_gap``."""
    q = exponent_triple(_require_pair(fs1, fs2, "product_bound_gap")).q_float
    (g1, e1), (g2, e2) = (_dual_rec_unit(fs, "full", work_budget) for fs in (fs1, fs2))
    lhs = lp_norm(pointwise_mul(g1, g2), np.inf)
    # a q-norm is homogeneous: rescale each by its row's exponent, exactly
    q1, q2 = (
        np.prod([np.ldexp(lp_norm(g, q), -_unit_binade(g.values)[1]) for g in fs])
        for fs in (fs1, fs2)
    )
    rhs = float(q1 * q2)
    nonneg = fs1.is_nonnegative() and fs2.is_nonnegative()
    passed = lhs <= rhs * (1.0 + INEQ_SLACK)
    lhs, rhs = (_scale_back(v, e1 + e2, "dual field product") for v in (lhs, rhs))
    params = instance_params(fs1.k, fs1.dim, fs1.extent, fs1.spacing)
    return check_record("eq5.6-product-bound", lhs, rhs, passed, params, signed=not nonneg)


def fourier_bound_gap(fs, work_budget=None):
    """Transform-norm bound for dual fields, valid from order 3 upward.

    For ``k >= 3`` the dual exponent ``s_k`` lies in [1, 2], so the transform
    maps L^{s_k} into the dual-lattice L^{p_k} with constant one; at ``k = 3``
    both exponents are 2 and the check is pure Parseval.
    """
    _require_punctured(fs, "fourier_bound_gap")
    if fs.k < 3:
        raise ValueError(f"fourier_bound_gap requires k >= 3, got {fs.k}")
    trip = exponent_triple(fs.k)
    g = _dual_field(fs, "full", work_budget)
    spec = fourier(g, tuple(2 * n for n in g.extents))
    lhs = spec.lp_norm(trip.p_float)
    rhs = float(np.prod([lp_norm(f, trip.p_float) for f in fs]))
    passed = lhs <= rhs * (1.0 + FOURIER_SLACK)
    params = instance_params(fs.k, fs.dim, fs.extent, fs.spacing)
    signed = not fs.is_nonnegative()
    return check_record("eq5.7-fourier", lhs, rhs, passed, params, signed=signed)
