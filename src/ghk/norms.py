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

The recursion here and ``dual.dual_rec`` share one engine,
``_shift_product_sum``: every order and dimension is batched the same way,
shift products that vanish are skipped, and the batches are sized from
``budget.memory_budget()``. A dual pass pads each axis only as far as its
output box needs (2N on the frame box) and returns the power sum with the
field, so the ascent in ``antiuniform`` gets a norm and a dual field from one
pass.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import kernels
from .budget import brute_gowers_work, check_work, memory_budget
from .cubes import FunctionTuple
from .exponents import exponent_triple
from .grid import GridFunction, fourier, lp_norm
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


def _shift_windows(rows, lo, shape):
    # strided view (b, *(2N-1), *shape) of one zero-padded copy: rows read at
    # y + h for y in the box [lo, lo + shape) and h in [-(N-1), N-1]^d, zero
    # off the frame [0, N)
    n = rows.shape[1:]
    span = tuple(s + 2 * m - 2 for s, m in zip(shape, n))
    buf = np.zeros(rows.shape[:1] + span)
    dst, src = [slice(None)], [slice(None)]
    for a, m in enumerate(n):
        start = lo[a] - (m - 1)  # frame coordinate of buffer index 0
        i0 = max(0, -start)
        i1 = max(i0, min(span[a], m - start))
        dst.append(slice(i0, i1))
        src.append(slice(i0 + start, i1 + start))
    buf[tuple(dst)] = rows[tuple(src)]
    view = rows.shape[:1] + tuple(2 * m - 1 for m in n) + tuple(shape)
    return np.ndarray(view, buffer=buf, strides=buf.strides + buf.strides[1:])


def _order2_length(lo, hi, m):
    # smallest even transform length at which no cyclic alias of the order-2
    # base lands in [lo, hi): its offsets fill [-(m-1), 2m-1), so y + M must
    # pass 2m-2 for y >= lo and y - M must fall below -(m-1) for y < hi
    need = max(2 * m - 1 - lo, hi + m - 1)
    return need + need % 2


def _shift_product_sum(values, k, out_lo=None, out_shape=None):
    """Unweighted order-k shift recursion on the frame of ``values``.

    Each level peels one cube coordinate off a batch of rows: row ``g``
    becomes the ``(2N-1)^d`` products ``g . g^h``, ``h`` in ``[-(N-1), N-1]^d``
    (every larger shift gives a zero product). The order-2 base transforms
    each row once and sums ``|F|^4`` over the spectrum (Parseval): without an
    output box the result is that power sum ``||f||_U(k)^(2^k) / w^((k+1)d)``,
    on a transform padded to 2N per axis.

    With the box ``[out_lo, out_lo + out_shape)`` the result is the pair
    ``(field, power)``: the field is the dual field ``D_k f / w^(kd)`` there,
    and ``power`` the same power sum as above, exact whenever the box
    contains the frame. Each row also carries a weight on the box that every
    peel multiplies by the outer factor ``g(y + h)``, and the base adds the
    cubic correlation ``irfft(F |F|^2)``. The box is first clipped to the
    field's order-k support, off which the field is exactly zero; a box that
    misses it returns zeros without a transform. Each axis is then padded
    only as far as the clipped box needs: 2N on the frame box, and on the
    covering box about 3N at k=2, less at higher k, whose support is narrower.

    Rows whose product or weight vanishes are dropped; in the dual mode a row
    dropped for its weight has a zero product as well when the box contains
    the frame, which keeps the power sum exact. A batch holds about
    ``memory_budget() / 64`` padded f64 elements (the transform and its
    temporaries), and never less than one transform row in the base or, in a
    peel, the products of one row at one value of the first shift coordinate.
    """
    n = values.shape
    d = values.ndim
    axes = tuple(range(1, d + 1))
    expand = (slice(None),) + (None,) * d
    dual = out_shape is not None
    if dual:
        # the order-k support per axis is [-floor((N-1)/(k-1)),
        # floor(k(N-1)/(k-1))]: with p_i = y + h_i in [0, N), the full-cube
        # vertex reads y + sum h_i = sum p_i - (k-1) y
        out = np.zeros(out_shape)
        lo = tuple(max(l, -((m - 1) // (k - 1))) for l, m in zip(out_lo, n))
        hi = tuple(
            min(l + s, k * (m - 1) // (k - 1) + 1)
            for l, s, m in zip(out_lo, out_shape, n)
        )
        if any(a >= b for a, b in zip(lo, hi)):
            return out, 0.0
        box = tuple(b - a for a, b in zip(lo, hi))
        padded = tuple(_order2_length(a, b, m) for a, b, m in zip(lo, hi, n))
    else:
        padded = tuple(2 * m for m in n)
    limit = memory_budget() // 64
    base_rows = max(1, limit // math.prod(padded))
    row_size = math.prod(n) + (math.prod(box) if dual else 0)
    # a peel batch is rows times a slab of the first shift axis; the slab is
    # the whole axis unless the products of one row alone exceed the limit
    h0, rest = 2 * n[0] - 1, row_size * math.prod(2 * m - 1 for m in n[1:])
    slab = max(1, min(h0, limit // rest))
    peel_rows = max(1, limit // (slab * rest))

    def batches(rows, wts, order):
        step = base_rows if order == 2 else peel_rows
        for s in range(0, len(rows), step):
            g = rows[s : s + step]
            w = None if wts is None else wts[s : s + step]
            if order == 2:
                yield g, w
                continue
            windows = _shift_windows(g, (0,) * d, n)
            outer = _shift_windows(g, lo, box) if dual else None
            for t in range(0, h0, slab):
                prods = (windows[:, t : t + slab] * g[expand]).reshape((-1,) + n)
                keep = prods.reshape(len(prods), -1).any(axis=1)
                w_h = None
                if dual:
                    w_h = outer[:, t : t + slab] * w[expand]
                    w_h = w_h.reshape((-1,) + box)
                    keep &= w_h.reshape(len(w_h), -1).any(axis=1)
                if not keep.all():
                    prods = prods[keep]
                    w_h = None if w_h is None else w_h[keep]
                yield from batches(prods, w_h, order - 1)

    wgt = np.full(padded[-1] // 2 + 1, 2.0)
    wgt[0] = wgt[-1] = 1.0  # self-conjugate bins of the even last axis
    total = 0.0
    if dual:
        field = out[tuple(slice(a - l, b - l) for a, b, l in zip(lo, hi, out_lo))]
        if min(lo) >= 0:  # the box lies in [0, M): hi <= M by the padding
            gather = (slice(None),) + tuple(slice(a, b) for a, b in zip(lo, hi))
        else:
            gather = (slice(None),) + np.ix_(
                *[np.arange(a, b) % p for a, b, p in zip(lo, hi, padded)]
            )
    for g, w in batches(values[None], np.ones((1,) + box) if dual else None, k):
        spec = np.fft.rfftn(g, s=padded, axes=axes)
        a = spec.real * spec.real + spec.imag * spec.imag
        total += float(np.sum((a * a) @ wgt))
        if dual:
            z = np.fft.irfftn(spec * a, s=padded, axes=axes)
            field += np.einsum("i...,i...->...", w, z[gather])
    power = total / math.prod(padded)
    return (out, power) if dual else power


def _unit_binade(values):
    """``(values * 2**-e, e)``, the largest magnitude moved into [0.5, 1).

    A power-of-two scale is exact, and the engine commutes with it bit for
    bit, so the recursive routes evaluate on this copy and scale back.
    """
    e = math.frexp(float(np.abs(values).max()))[1]
    return np.ldexp(values, -e), e


def _unit_rows(stack):
    """Each row of ``stack`` by :func:`_unit_binade`, with the sum of the
    exponents: the scale of a product that takes one factor per row."""
    rows, exps = zip(*map(_unit_binade, stack))
    return np.stack(rows), sum(exps)


def _check_pow2(top, e, what):
    """Raise ``OverflowError`` unless ``top * 2**e`` is zero or a normal float64."""
    if top and not (
        math.isfinite(top)
        and sys.float_info.min_exp <= math.frexp(top)[1] + e <= sys.float_info.max_exp
    ):
        raise OverflowError(
            f"{what} has magnitude {top!r} * 2**{e}, outside the normal float64 range"
        )


def _scale_back(value, e, what):
    """``value * 2**e``, exactly, or ``OverflowError`` if not a normal float64."""
    _check_pow2(value, e, what)
    return math.ldexp(value, e)


def _norm_from_power(value_pow, k, e):
    """``||f||_U(k)`` from the weighted power sum of ``f * 2**-e``."""
    return _scale_back(value_pow ** (1.0 / (1 << k)), e, f"U({k}) norm")


def gowers_norm_rec(f, k):
    """Order-k uniformity norm by the fast shift recursion (FFT base at k=2).

    Evaluated on ``f`` rescaled by a power of two, so any norm that is a
    normal float64 comes back finite and correctly scaled; one that is not
    raises ``OverflowError``.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"gowers_norm_rec requires k >= 1, got {k}")
    values, e = _unit_binade(f.values)
    if k == 1:
        # |integral(f)|, summed on the rescaled values
        return _scale_back(abs(f.cell_measure * float(np.sum(values))), e, "U(1) norm")
    # the recursion accumulates squares, so the power sum is nonnegative by
    # construction and needs no clamp
    power = _shift_product_sum(values, k) * f.spacing ** ((k + 1) * f.dim)
    return _norm_from_power(power, k, e)


def gowers_norm_spectral_u2(f):
    """Order-2 norm as the dual-lattice L^4 norm of the transform padded to 3N."""
    values, e = _unit_binade(f.values)
    unit = GridFunction(values, f.spacing, f.origin)
    spec = fourier(unit, tuple(3 * n for n in f.extents))
    return _scale_back(spec.lp_norm(4), e, "U(2) norm")


def gowers_norm(f, k, algo="rec", work_budget=None):
    """Dispatch on evaluation route: ``brute``, ``rec`` or ``spectral`` (k=2)."""
    if algo == "brute":
        return gowers_norm_brute(f, k, work_budget)
    if algo == "rec":
        return gowers_norm_rec(f, k)
    if algo == "spectral":
        if int(k) != 2:
            raise ValueError("the spectral route applies to k = 2 only")
        return gowers_norm_spectral_u2(f)
    raise ValueError(f"unknown algorithm {algo!r}")


def gowers_inner(fs, work_budget=None):
    """The cube inner product of a complete tuple over the full vertex set.

    Brute force only: ``sum_{x,h} w^((k+1)d) prod_alpha f_alpha(x + alpha.h)``.
    """
    if not isinstance(fs, FunctionTuple):
        raise TypeError("gowers_inner expects a FunctionTuple over the full cube")
    if fs.vertex_set.punctured:
        raise ValueError("gowers_inner needs the full vertex set, not the punctured one")
    k = fs.k
    lo, hi, stack = fs.stacked()
    extents = tuple(h - l for l, h in zip(lo, hi))
    check_work(brute_gowers_work(extents, k), work_budget)
    rows, e = _unit_rows(stack)
    acc, _ = kernels.gowers_sum(rows, k)
    return _scale_back(acc * fs.spacing ** ((k + 1) * fs.dim), e, "cube inner product")


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
