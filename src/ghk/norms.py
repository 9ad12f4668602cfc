"""Uniformity norms of order k, the cube inner product, and the CSG check.

Three independent evaluation routes are provided for ``||f||_U(k)``:

``gowers_norm_brute``
    The flat (k+1)-fold lattice sum over all cube shifts: the oracle.
``gowers_norm_rec``
    The shift recursion ``||f||^(2^(k+1))_U(k+1) = w^d sum_h ||f^h f||^(2^k)_U(k)``
    down to an order-2 base evaluated from padded FFT autocorrelations
    (padding ``M >= 2N`` per axis makes cyclic wraparound vanish), on ``f``
    rescaled by a power of two so that the power sums neither overflow nor
    underflow.
``gowers_norm_spectral_u2``
    The order-2 identity ``||f||_U(2) = ||f_hat||_4`` on a transform padded to
    ``3N`` per axis, so no aliased vertex-shift offset re-enters the
    support.

All three agree to float roundoff: for whole-cell shifts the x-sums are exact,
so the discrete values coincide identically across algorithms. Each route,
and ``gowers_inner``, evaluates on its rows rescaled by powers of two
(``_unit_binade``) and scales the result back exactly, or raises
``OverflowError`` when it is not a normal float64.

The recursion here, ``gowers_inner`` and ``dual.dual_rec`` share one
engine, ``_shift_product_sum``, which peels a stack of vertex rows (one row
for an all-equal tuple): every order and dimension is batched the same way,
tuples with a vanishing row are skipped, and the batches are sized from
``budget.memory_budget()``; what depends only on the shapes and the budget
is planned once per key (``_plan``). A dual pass pads each axis only as far
as its output box needs (2N on the frame box) and returns the power sum with
the field, so the ascent in ``antiuniform`` gets both from one pass.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import kernels
from .budget import (
    brute_gowers_work,
    check_work,
    memory_budget,
    rec_gowers_work,
    spectral_work,
)
from .cubes import FunctionTuple
from .exponents import exponent_triple
from .grid import GridFunction, _frozen, _scale_back, _unit_binade, fourier, lp_norm
from .records import INEQ_SLACK, check_record, instance_params

#: Clamp threshold for negative power-sum accumulations (relative to the
#: absolute-product mass); anything more negative signals a kernel bug.
NEG_CLAMP_REL = 1e-12


def _clamp_power(value_pow, scale, what):
    if value_pow >= 0.0:
        return value_pow
    floor = NEG_CLAMP_REL * max(scale, 1e-300)
    if value_pow >= -floor:
        return 0.0
    raise ArithmeticError(
        f"{what} accumulated {value_pow}, below the -{NEG_CLAMP_REL} relative "
        f"clamp window (scale {scale}); this indicates a kernel bug"
    )


def gowers_norm_brute(f, k, work_budget=None):
    """Order-k uniformity norm by the full brute-force shift sum.

    Work grows like ``N^d * (2N-1)^(kd)`` lattice visits and is refused above
    the work budget. Negative accumulations within the clamp window (pure
    float cancellation on signed inputs) are clamped to zero before the root.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"gowers_norm_brute requires k >= 1, got {k}")
    check_work(brute_gowers_work(f.extents, k), work_budget)
    values, e = _unit_binade(f.values)
    stack = np.broadcast_to(values, (1 << k,) + f.extents)
    acc, accabs = kernels.gowers_sum(np.ascontiguousarray(stack), k)
    weight = f.spacing ** ((k + 1) * f.dim)
    value_pow = _clamp_power(acc * weight, accabs * weight, f"U({k})^{1 << k}")
    return _norm_from_power(value_pow, k, e)


@functools.lru_cache(maxsize=64)
def _window_plan(n, lo, shape):
    # buffer extents, the frame's place in the buffer and in the rows, and
    # the shift extents of :func:`_shift_windows`
    span, dst, src = [], [Ellipsis], [Ellipsis]
    for a, m, s in zip(lo, n, shape):
        span.append(s + 2 * m - 2)
        start = a - (m - 1)  # frame coordinate of buffer index 0
        i0 = max(0, -start)
        i1 = max(i0, min(span[-1], m - start))
        dst.append(slice(i0, i1))
        src.append(slice(i0 + start, i1 + start))
    return tuple(span), tuple(dst), tuple(src), tuple(2 * m - 1 for m in n)


def _shift_windows(rows, lo, shape):
    # strided view (b, *(2N-1), *rest, *shape) of one zero-padded copy: rows
    # (b, *rest, *n) read at y + h for y in the box [lo, lo + shape) and h in
    # [-(N-1), N-1]^d, zero off the frame [0, N)
    lead, n = rows.shape[: -len(shape)], rows.shape[-len(shape) :]
    span, dst, src, shifts = _window_plan(n, lo, shape)
    buf = np.zeros(lead + span)
    buf[dst] = rows[src]
    st, space = buf.strides, buf.strides[len(lead) :]
    view = lead[:1] + shifts + lead[1:] + shape
    return np.ndarray(view, buffer=buf, strides=st[:1] + space + st[1 : len(lead)] + space)


def _order2_length(lo, hi, m):
    # smallest even transform length at which no cyclic alias of the order-2
    # base lands in [lo, hi): its offsets fill [-(m-1), 2m-1), so y + M must
    # pass 2m-2 for y >= lo and y - M must fall below -(m-1) for y < hi
    need = max(2 * m - 1 - lo, hi + m - 1)
    return need + need % 2


@functools.lru_cache(maxsize=64)
def _plan(n, lo, box, budget, r):
    """What :func:`_shift_product_sum` derives from its shapes, the memory
    budget and the row count ``r`` of the tuples it peels, once per key
    (read-only arrays)."""
    dual = box is not None
    gather = None
    if dual:
        hi = tuple(a + s for a, s in zip(lo, box))
        padded = tuple(_order2_length(a, b, m) for a, b, m in zip(lo, hi, n))
        if min(lo) >= 0:  # the box lies in [0, M): hi <= M by the padding
            gather = (slice(None),) + tuple(slice(a, b) for a, b in zip(lo, hi))
        else:
            gather = (slice(None),) + np.ix_(
                *[np.arange(a, b) % p for a, b, p in zip(lo, hi, padded)]
            )
            for index in gather[1:]:
                index.flags.writeable = False
    else:
        padded = tuple(2 * m for m in n)
    # a peel keeps m rows: the rows beta < top (rows [0, m)) times the rows
    # beta|top shifted (windows [1, top] of the rows from the top row on);
    # one row g stays one row, g times its own window
    top, m = r // 2, max(r // 2, 1)
    limit = budget // 64
    base_rows = max(1, limit // (r * math.prod(padded)))
    row_size = m * math.prod(n) + (math.prod(box) if dual else 0)
    # a peel batch is tuples times a slab of the first shift axis; the slab
    # is the whole axis unless the products of one tuple alone exceed the limit
    h0, rest = 2 * n[0] - 1, row_size * math.prod(2 * a - 1 for a in n[1:])
    slab = max(1, min(h0, limit // rest))
    peel_rows = max(1, limit // (slab * rest))
    wgt = np.full(padded[-1] // 2 + 1, 2.0)
    wgt[0] = wgt[-1] = 1.0  # self-conjugate bins of the even last axis
    wgt.flags.writeable = False
    # on the frame box the outer factor g_top(y + h) is the shift window itself
    own = dual and box == n and not any(lo)
    peel = (slice(0, m), top, slice(min(r - 1, 1), None))
    return padded, base_rows, h0, slab, peel_rows, wgt, gather, own, peel


def _shift_product_sum(rows, k, lo=None, box=None):
    """Unweighted order-k shift recursion on the frame of ``rows``.

    ``rows`` stacks the vertex functions of one order-k tuple: either the
    ``2^k - 1`` members of a punctured tuple in vertex order (mask ``a`` in
    row ``a - 1``), or a single row standing for the all-equal tuple.

    Each level peels the top cube coordinate off a batch of tuples: a tuple
    becomes the ``(2N-1)^d`` tuples ``(g_b . g_(b|top)^h : 0 < b < top)``,
    ``h`` in ``[-(N-1), N-1]^d`` (every larger shift gives a zero product),
    and one row ``g`` becomes ``g . g^h``, so an all-equal tuple stays one
    row at every order. The order-2 base transforms each row once; for one
    row it also sums ``|F|^4`` over the spectrum (Parseval): without an
    output box the result is that power sum ``||f||_U(k)^(2^k) / w^((k+1)d)``,
    on a transform padded to 2N per axis.

    With the box ``[lo, lo + box)``, the frame or the field's order-k support
    (``dual._resolve_out_box``), the result is the pair ``(field, power)``:
    the field is the dual field ``D_k / w^(kd)`` there, and ``power`` the
    power sum above for one row, ``None`` for a general tuple. Each tuple
    also carries a weight on the box that every peel multiplies by the outer
    factor ``g_top(y + h)``, and the base adds the cubic correlation
    ``irfft(F_1 F_2 conj(F_3))`` (``F |F|^2`` for one row), on a transform
    padded only as far as the box needs: 2N on the frame, about 3N on the
    support at k=2.

    Tuples with a vanishing row or weight are dropped; in the dual mode a
    tuple dropped for its weight has a zero product as well, because both
    boxes contain the frame, which keeps the power sum exact. A batch holds
    about ``memory_budget() / 64`` padded f64 elements (the transform and
    its temporaries), and never less than one tuple in the base or, in a
    peel, the products of one tuple at one value of the first shift
    coordinate.
    """
    n = rows.shape[1:]
    d = len(n)
    axes = tuple(range(1, d + 1))
    expand = (slice(None),) + (None,) * d
    at = (slice(None),) * (d + 1)
    dual = box is not None
    budget = memory_budget()
    padded, _, _, _, _, wgt, gather, _, _ = _plan(n, lo, box, budget, len(rows))

    def batches(g, w, order):
        # g: (tuples, r, *n); w: (tuples, *box), or None: every tuple weighs
        # one (the top call)
        r = g.shape[1]
        _, base_rows, h0, slab, peel_rows, _, _, own, peel = _plan(n, lo, box, budget, r)
        low, top, high = peel
        step = base_rows if order == 2 else peel_rows
        for s in range(0, len(g), step):
            gs = g[s : s + step]
            ws = None if w is None else w[s : s + step]
            if order == 2:
                yield gs, ws
                continue
            # (tuples, *(2N-1), rows from the top on, *n)
            windows = _shift_windows(gs[:, top:], (0,) * d, n)
            outer = None
            if dual:
                outer = windows[at + (0,)] if own else _shift_windows(gs[:, top], lo, box)
            shifted, lower = windows[at + (high,)], gs[expand + (low,)]
            for t in range(0, h0, slab):
                prods = (shifted[:, t : t + slab] * lower).reshape((-1,) + lower.shape[d + 1 :])
                rows_nz = prods.reshape(prods.shape[:2] + (-1,)).any(axis=2)
                keep = np.logical_and.reduce(rows_nz, axis=1)
                w_h = None
                if dual:
                    w_h = outer[:, t : t + slab]
                    w_h = (w_h if ws is None else w_h * ws[expand]).reshape((-1,) + box)
                    keep &= w_h.reshape(len(w_h), -1).any(axis=1)
                if not keep.all():
                    prods = prods[keep]
                    w_h = None if w_h is None else w_h[keep]
                yield from batches(prods, w_h, order - 1)

    total = 0.0
    field = np.zeros(box) if dual else None
    for g, w in batches(rows[None], None, k):
        spec = np.fft.rfftn(g.reshape((-1,) + n), s=padded, axes=axes)
        if g.shape[1] == 1:
            a = spec.real * spec.real + spec.imag * spec.imag
            total += float(np.sum((a * a) @ wgt))
            if not dual:
                continue
            cubic = spec * a
        else:
            spec = spec.reshape(g.shape[:2] + spec.shape[1:])
            cubic = spec[:, 0] * spec[:, 1] * spec[:, 2].conj()
        z = np.fft.irfftn(cubic, s=padded, axes=axes)[gather]
        field += z[0] if w is None else np.einsum("i...,i...->...", w, z)
    power = total / math.prod(padded) if len(rows) == 1 else None
    return (field, power) if dual else power


def _unit_rows(stack):
    """Each row of ``stack`` by :func:`_unit_binade`, with the sum of the
    exponents: the scale of a product that takes one factor per row."""
    rows, exps = zip(*map(_unit_binade, stack))
    return np.stack(rows), sum(exps)


def _dual_unit(stack, k, lo, box, work_budget=None):
    """``(field, e)``: D_k / w^(kd) of a punctured stack (vertex order) on the
    box ``[lo, lo + box)`` of its frame, evaluated on its rows rescaled by
    powers of two, ``e`` summing the exponents of all its factors.

    An all-equal stack goes to the engine as one row. The engine's cost model
    is checked against ``work_budget`` before its first transform.
    """
    if all(np.array_equal(stack[0], row) for row in stack[1:]):
        row, e = _unit_binade(stack[0])
        rows, e = row[None], e * len(stack)
    else:
        rows, e = _unit_rows(stack)
    check_work(rec_gowers_work(stack.shape[1:], k, min(len(rows), 3), box), work_budget)
    field, _ = _shift_product_sum(rows, k, lo, box)
    return field, e


def _norm_from_power(value_pow, k, e):
    """``||f||_U(k)`` from the weighted power sum of ``f * 2**-e``."""
    return _scale_back(value_pow ** (1.0 / (1 << k)), e, f"U({k}) norm")


def gowers_norm_rec(f, k, work_budget=None):
    """Order-k uniformity norm by the fast shift recursion (FFT base at k=2).

    Evaluated on ``f`` rescaled by a power of two, so any norm that is a
    normal float64 comes back finite and correctly scaled; one that is not
    raises ``OverflowError``. The cost model ``budget.rec_gowers_work`` is
    checked against ``work_budget`` first.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"gowers_norm_rec requires k >= 1, got {k}")
    check_work(rec_gowers_work(f.extents, k), work_budget)
    values, e = _unit_binade(f.values)
    if k == 1:
        # |integral(f)|, summed on the rescaled values
        return _scale_back(abs(f.cell_measure * float(np.sum(values))), e, "U(1) norm")
    # the recursion accumulates squares, so the power sum is nonnegative by
    # construction and needs no clamp
    power = _shift_product_sum(values[None], k) * f.spacing ** ((k + 1) * f.dim)
    return _norm_from_power(power, k, e)


def gowers_norm_spectral_u2(f, work_budget=None):
    """Order-2 norm as the dual-lattice L^4 norm of the transform padded to 3N.

    The cost model ``budget.spectral_work`` is checked against ``work_budget``
    before the transform.
    """
    check_work(spectral_work(f.extents), work_budget)
    values, e = _unit_binade(f.values)
    unit = GridFunction(_frozen(values), f.spacing, f.origin)
    spec = fourier(unit, tuple(3 * n for n in f.extents))
    return _scale_back(spec.lp_norm(4), e, "U(2) norm")


def gowers_norm(f, k, algo="rec", work_budget=None):
    """Dispatch on evaluation route: ``brute``, ``rec`` or ``spectral`` (k=2)."""
    if algo == "brute":
        return gowers_norm_brute(f, k, work_budget)
    if algo == "rec":
        return gowers_norm_rec(f, k, work_budget)
    if algo == "spectral":
        if int(k) != 2:
            raise ValueError("the spectral route applies to k = 2 only")
        return gowers_norm_spectral_u2(f, work_budget)
    raise ValueError(f"unknown algorithm {algo!r}")


def gowers_inner(fs, work_budget=None):
    """The cube inner product of a complete tuple over the full vertex set:
    ``sum_{x,h} w^((k+1)d) prod_alpha f_alpha(x + alpha.h)``.

    Evaluated as the pairing ``<f_0, D_k(f_alpha : alpha != 0)>`` on the
    tuple's common frame, the field from the shift-product engine (the
    order-1 field is the constant ``integral(f_1)``).
    """
    if not isinstance(fs, FunctionTuple):
        raise TypeError("gowers_inner expects a FunctionTuple over the full cube")
    if fs.vertex_set.punctured:
        raise ValueError("gowers_inner needs the full vertex set, not the punctured one")
    k = fs.k
    _, _, stack = fs.stacked()
    row0, e0 = _unit_binade(stack[0])
    if k == 1:
        row1, e = _unit_binade(stack[1])
        acc = float(np.sum(row0)) * float(np.sum(row1))
    else:
        n = stack.shape[1:]
        field, e = _dual_unit(stack[1:], k, (0,) * len(n), n, work_budget)
        acc = float(np.sum(row0 * field))
    return _scale_back(acc * fs.spacing ** ((k + 1) * fs.dim), e0 + e, "cube inner product")


def csg_gap(fs, work_budget=None):
    """Cauchy-Schwarz-Gowers check for one tuple.

    Gates ``T_k <= prod ||f_a||_U(k) <= prod ||f_a||_p_k`` with relative
    slack ``records.INEQ_SLACK``; signed tuples are recorded but not gated.
    """
    k = fs.k
    trip = exponent_triple(k)
    lhs = gowers_inner(fs, work_budget)
    rhs = float(np.prod([gowers_norm_rec(g, k) for g in fs]))
    rhs2 = float(np.prod([lp_norm(g, trip.p_float) for g in fs]))
    passed = lhs <= rhs * (1.0 + INEQ_SLACK) and rhs <= rhs2 * (1.0 + INEQ_SLACK)
    params = instance_params(k, fs.dim, fs.extent, fs.spacing)
    return check_record(
        "eq1.5-csg", lhs, rhs, passed, params, signed=not fs.is_nonnegative(),
        extra={"rhs_lp": rhs2}, extra_ratios={"ratio_norms_lp": (rhs, rhs2)},
    )
