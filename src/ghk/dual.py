"""Cubic convolution products (dual functions) and their inequality checks.

The order-k dual field of a punctured vertex tuple is

    D_k(f_alpha)(x) = sum_h w^(kd) prod_{alpha != 0} f_alpha(x + alpha.h),

a continuous, compactly supported function. Public evaluation defaults to the
union bounding box of the inputs; checks that take a maximum over *all* x
evaluate on the provably covering box ``[-(N-1), 2N-1)`` per axis (derived
from the vertex relation e1 + e2 = e1+e2), where the field's natural support
ends.

``dual_rec`` peels the last cube coordinate,
``D_k f(x) = w^d sum_h f(x+h) D_(k-1)(f^h f)(x)``, down to an order-2 base
evaluated by FFT, through the shift-product engine it shares with
``norms.gowers_norm_rec``; it matches ``dual_brute`` pointwise to float
roundoff on all-equal tuples at a fraction of the cost. The engine clips the
output box to the field's order-k support and pads each axis only as far as
the clipped box needs: 2N on the frame box, at most about 3N on the covering
box.
``_norm_and_dual`` takes the norm and the field on the frame from one pass.
``dual_brute`` evaluates on each row rescaled by a power of two, as the
recursive route does.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .budget import brute_dual_work, check_work
from .cubes import FunctionTuple
from .exponents import exponent_triple
from .grid import (
    GridFunction,
    add,
    common_frame,
    fourier,
    intersection_box,
    lp_norm,
    pointwise_mul,
    scale,
    shift,
)
from .norms import (
    _check_pow2,
    _norm_from_power,
    _shift_product_sum,
    _unit_binade,
    _unit_rows,
)
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


def _resolve_out_box(frame_lo, frame_hi, out_box):
    """Relative evaluation box for a common frame of extents ``n``.

    ``None`` selects the frame box itself; ``"full"`` the covering box
    ``[-(n-1), 2n-1)`` per axis; an explicit ``(lo, hi)`` pair is absolute.
    """
    n = tuple(h - l for l, h in zip(frame_lo, frame_hi))
    if out_box is None:
        return (0,) * len(n), n
    if out_box == "full":
        return tuple(-(na - 1) for na in n), tuple(3 * na - 2 for na in n)
    lo, hi = out_box
    rel_lo = tuple(int(l) - fl for l, fl in zip(lo, frame_lo))
    shp = tuple(int(h) - int(l) for l, h in zip(lo, hi))
    if any(s < 1 for s in shp):
        raise ValueError(f"empty output box {out_box}")
    return rel_lo, shp


def dual_brute(fs, out_box=None, work_budget=None):
    """Brute-force cubic convolution product of a punctured tuple."""
    _require_punctured(fs, "dual_brute")
    lo, hi, stack = fs.stacked()
    rel_lo, out_shape = _resolve_out_box(lo, hi, out_box)
    extents = tuple(h - l for l, h in zip(lo, hi))
    check_work(brute_dual_work(extents, fs.k, out_shape), work_budget)
    rows, e = _unit_rows(stack)
    raw = kernels.dual_field_sum(rows, fs.k, rel_lo, out_shape)
    origin = tuple(fl + rl for fl, rl in zip(lo, rel_lo))
    return GridFunction(_field_from(raw, fs.spacing, fs.k, e), fs.spacing, origin)


def _field_from(raw, spacing, k, e):
    """The dual field from a raw one whose factors were rescaled by ``2**-e``
    in all (one factor per row, so ``e`` sums the rows' exponents)."""
    field = raw * spacing ** (k * raw.ndim)
    _check_pow2(float(np.abs(field).max()), e, f"order-{k} dual field")
    return np.ldexp(field, e)


def dual_rec(f, k, out_box=None):
    """Recursive dual field for the all-equal tuple ``f_alpha = f``.

    Cost is ``(2N)^d`` order-(k-1) fields instead of the ``(2N)^(kd)`` shift
    sum; general (non-equal) tuples go through :func:`dual_brute`. Evaluated
    on ``f`` rescaled by a power of two, so the field comes back correctly
    scaled, or ``OverflowError`` is raised when its largest magnitude is not
    a normal float64.
    """
    k = int(k)
    if k < 2:
        raise ValueError(f"dual_rec requires k >= 2, got {k}")
    lo, hi = f.box
    rel_lo, out_shape = _resolve_out_box(lo, hi, out_box)
    values, e = _unit_binade(f.values)
    raw, _ = _shift_product_sum(values, k, rel_lo, out_shape)
    origin = tuple(fl + rl for fl, rl in zip(lo, rel_lo))
    # D_k is homogeneous of degree 2^k - 1
    field = _field_from(raw, f.spacing, k, e * ((1 << k) - 1))
    return GridFunction(field, f.spacing, origin)


def _norm_and_dual(values, spacing, k):
    """``(||f||_U(k), D_k f on the frame)`` for frame values, from one pass
    of the engine.

    The field equals ``dual_rec(f, k).values`` bit for bit; the norm is the
    power sum the same pass takes from its base spectra, exact because the
    frame box contains the frame.
    """
    scaled, e = _unit_binade(values)
    raw, power = _shift_product_sum(scaled, k, (0,) * scaled.ndim, scaled.shape)
    return (
        _norm_from_power(power * spacing ** ((k + 1) * scaled.ndim), k, e),
        _field_from(raw, spacing, k, e * ((1 << k) - 1)),
    )


# ---------------------------------------------------------------------------
# inequality and identity checks
# ---------------------------------------------------------------------------


def lemma1_gap(fs, work_budget=None):
    """Sup-norm domination of the dual field by the product of L^q_k norms."""
    _require_punctured(fs, "lemma1_gap")
    trip = exponent_triple(fs.k)
    field = dual_brute(fs, out_box="full", work_budget=work_budget)
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
    field = dual_brute(fs, out_box="full", work_budget=work_budget)
    diff = add(field, scale(shift(field, v), -1.0))
    lhs = lp_norm(diff, np.inf)
    qnorms = [lp_norm(g, trip.q_float) for g in fs]
    rhs = 0.0
    for i, g in enumerate(fs):
        shifted_gap = lp_norm(add(g, scale(shift(g, v), -1.0)), trip.q_float)
        prod = shifted_gap
        for j, q in enumerate(qnorms):
            if j != i:
                prod *= q
        rhs += prod
    params = instance_params(fs.k, fs.dim, fs.extent, fs.spacing, v=list(v))
    passed = lhs <= rhs * (1.0 + INEQ_SLACK)
    signed = not fs.is_nonnegative()
    return check_record("eq5.2-continuity", lhs, rhs, passed, params, signed=signed)


def product_identity_gap(fs1, fs2, work_budget=None):
    """Pointwise product of two dual fields versus the literal double shift sum.

    The double sum is evaluated without the change of variables that proves
    the identity, so the two routes are independent. Work grows with the
    (2k)-fold shift space: smallest instances only.
    """
    k = _require_pair(fs1, fs2, "product_identity_gap")
    g1 = dual_brute(fs1, work_budget=work_budget)
    g2 = dual_brute(fs2, work_budget=work_budget)
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
        check_work(brute_dual_work(extents, 2 * k, out_shape), work_budget)
        raw = kernels.dual_pair_field_sum(stack[:m], stack[m:], k, rel_lo, out_shape)
        rhs_field = raw * fs1.spacing ** (2 * k * fs1.dim)
        lhs = float(np.max(np.abs(lhs_field.values - rhs_field)))
        rhs_scale = float(np.max(np.abs(lhs_field.values)))
    passed = (lhs <= IDENTITY_TOL * max(rhs_scale, 1e-300)) or (lhs == 0.0)
    params = instance_params(k, fs1.dim, fs1.extent, fs1.spacing)
    return check_record("eq5.4-product-identity", lhs, rhs_scale, passed, params)


def product_bound_gap(fs1, fs2, work_budget=None):
    """Sup bound for the product of two dual fields by the q_k norm products."""
    trip = exponent_triple(_require_pair(fs1, fs2, "product_bound_gap"))
    g1 = dual_brute(fs1, out_box="full", work_budget=work_budget)
    g2 = dual_brute(fs2, out_box="full", work_budget=work_budget)
    prod = pointwise_mul(g1, g2)
    lhs = lp_norm(prod, np.inf)
    rhs = float(
        np.prod([lp_norm(g, trip.q_float) for g in fs1])
        * np.prod([lp_norm(g, trip.q_float) for g in fs2])
    )
    nonneg = fs1.is_nonnegative() and fs2.is_nonnegative()
    passed = lhs <= rhs * (1.0 + INEQ_SLACK)
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
    g = dual_brute(fs, work_budget=work_budget)
    spec = fourier(g, tuple(2 * n for n in g.extents))
    lhs = spec.lp_norm(trip.p_float)
    rhs = float(np.prod([lp_norm(f, trip.p_float) for f in fs]))
    passed = lhs <= rhs * (1.0 + FOURIER_SLACK)
    params = instance_params(fs.k, fs.dim, fs.extent, fs.spacing)
    signed = not fs.is_nonnegative()
    return check_record("eq5.7-fourier", lhs, rhs, passed, params, signed=signed)
